(* Binary-verifier tests: every firmware the toolchain produces must
   pass the independent SFI check, and a tampered image — a guard
   whose bound immediate has been zeroed — must be rejected.  The
   verifier shares no code with the guard *emitter*, so these tests
   cross-check the compiler and the verifier against each other. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Apps = Amulet_apps.Suite
module I = Amulet_link.Image
module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module A = Amulet_link.Asm
module V = Amulet_analysis.Verifier
module Cfi = Amulet_analysis.Cfi
module Hand_app = Test_support.Hand_app

let app_named name =
  List.find (fun (a : Apps.app) -> a.Apps.name = name) Apps.all

let build ?shadow ?elide mode (app : Apps.app) =
  Aft.build ~mode ?shadow ?elide [ Apps.spec_for mode app ]

let verify fw name mode = V.verify_app ~image:fw.Aft.fw_image ~mode ~prefix:name

let check_ok what fw name mode =
  match verify fw name mode with
  | Ok _ -> ()
  | Error [] -> Alcotest.failf "%s: %s rejected with no violations" what name
  | Error (v :: _ as vs) ->
    Alcotest.failf "%s: %s rejected (%d violations, first: %s)" what name
      (List.length vs)
      (Format.asprintf "%a" V.pp_violation v)

(* ------------------------------------------------------------------ *)
(* Accept matrix: every suite app, every mode *)

let test_accepts mode () =
  List.iter
    (fun (app : Apps.app) ->
      let fw = build mode app in
      check_ok (Iso.name mode) fw app.Apps.name mode)
    Apps.all

(* Shadow stack and elision-off variants change the emitted patterns
   (shadow prologue/epilogue; full guard population) — spot-check a
   recursion-heavy, a call-heavy and a platform app. *)
let variant_apps = [ "quicksort"; "callheavy"; "pedometer" ]

let test_accepts_shadow mode () =
  List.iter
    (fun name ->
      let fw = build ~shadow:true mode (app_named name) in
      check_ok (Iso.name mode ^ "+shadow") fw name mode)
    variant_apps

let test_accepts_no_elide mode () =
  List.iter
    (fun name ->
      let fw = build ~elide:false mode (app_named name) in
      check_ok (Iso.name mode ^ "+no-elide") fw name mode)
    variant_apps

(* ------------------------------------------------------------------ *)
(* Rejection of a tampered image *)

let fetch_of (image : I.t) a =
  let rec go = function
    | [] -> 0
    | (base, b) :: rest ->
      if a >= base && a + 1 < base + Bytes.length b then
        Char.code (Bytes.get b (a - base))
        lor (Char.code (Bytes.get b (a - base + 1)) lsl 8)
      else go rest
  in
  go image.I.chunks

let poke (image : I.t) a v =
  List.iter
    (fun (base, b) ->
      if a >= base && a + 1 < base + Bytes.length b then begin
        Bytes.set b (a - base) (Char.chr (v land 0xFF));
        Bytes.set b (a - base + 1) (Char.chr ((v lsr 8) land 0xFF))
      end)
    image.I.chunks

(* Zero the immediate of the first lower-bound guard comparison in the
   app's code section: the guard still executes but now compares the
   pointer against 0, so the verifier can no longer derive the lower
   bound the store needs. *)
let corrupt_guard (image : I.t) ~prefix =
  let code_lo = I.symbol image (Iso.code_lo_sym ~prefix) in
  let code_hi = I.symbol image (Iso.code_hi_sym ~prefix) in
  let data_lo = I.symbol image (Iso.data_lo_sym ~prefix) in
  let fetch = fetch_of image in
  let rec scan a =
    if a >= code_hi then None
    else
      match Amulet_mcu.Decode.decode ~fetch ~addr:a with
      | exception Amulet_mcu.Decode.Illegal _ -> scan (a + 2)
      | O.Fmt1 (O.CMP, _, O.S_immediate k, O.D_reg r), _
        when k land 0xFFFF = data_lo && r >= 4 ->
        poke image (a + 2) 0;
        Some a
      | _, size -> scan (a + size)
  in
  scan code_lo

let test_rejects_corrupt mode () =
  let fw = build mode (app_named "quicksort") in
  check_ok "pre-corruption" fw "quicksort" mode;
  match corrupt_guard fw.Aft.fw_image ~prefix:"quicksort" with
  | None -> Alcotest.fail "no lower-bound guard found to corrupt"
  | Some _ -> (
    match verify fw "quicksort" mode with
    | Ok _ -> Alcotest.fail "verifier accepted a tampered image"
    | Error vs ->
      Alcotest.(check bool) "at least one violation" true (vs <> []))

(* ------------------------------------------------------------------ *)
(* Instruction effects.  SFI and CFI read which registers an
   instruction writes, and what counts as RET or BR, from [Opcode]; each
   image below passed a check it should fail while the passes kept
   their own copies. *)

let checked_modes = [ Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ]

let reasons vs = List.map (fun v -> (v.V.vaddr, v.V.vreason)) vs

let check_violations what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error vs ->
    Alcotest.(check (list (pair int string))) what expected (reasons vs)

(* One word over the first instruction of pedometer's handle_init. *)
let patched_pedometer mode op =
  let image = (build mode (app_named "pedometer")).Aft.fw_image in
  let entry = I.symbol image "pedometer$handle_init" in
  poke image entry (List.hd (Amulet_mcu.Encode.encode op));
  (image, entry)

let test_pc_writes () =
  let cfi image mode = Cfi.reconstruct ~image ~mode ~prefix:"pedometer" in
  List.iter
    (fun mode ->
      List.iter
        (fun op1 ->
          let image, entry =
            patched_pedometer mode (O.Fmt2 (op1, W.W16, O.S_reg 0))
          in
          let what =
            Printf.sprintf "%s R0, %s" (O.op1_name op1) (Iso.name mode)
          in
          let sfi = V.verify_app ~image ~mode ~prefix:"pedometer" in
          if mode = Iso.No_isolation then
            Alcotest.(check bool) what true (Result.is_ok sfi)
          else
            check_violations what
              [ (entry, "computed branch in application code") ]
              sfi;
          Alcotest.(check bool) (what ^ ": CFI rejects") true
            (Result.is_error (cfi image mode)))
        [ O.SWPB; O.RRA ];
      (* CMP #0, R0 only sets the flags: both passes accept it *)
      let image, _ =
        patched_pedometer mode
          (O.Fmt1 (O.CMP, W.W16, O.S_immediate 0, O.D_reg 0))
      in
      let what = "CMP #0, R0, " ^ Iso.name mode in
      Alcotest.(check bool) (what ^ ": SFI accepts") true
        (Result.is_ok (V.verify_app ~image ~mode ~prefix:"pedometer"));
      Alcotest.(check bool) (what ^ ": CFI accepts") true
        (Result.is_ok (cfi image mode)))
    Iso.all

(* A CMP against PC refines nothing: PC has moved on by the time
   anything reads it. *)
let test_cmp_pc_not_refined () =
  let image =
    Hand_app.link
      [
        A.cmp (A.imm Hand_app.data_lo) (A.Dreg 0);
        A.jcc O.JNC "done";
        A.cmp (A.imm (Hand_app.data_lo + 0x40)) (A.Dreg 0);
        A.jcc O.JC "done";
        A.mov (A.Sreg 0) (A.Dreg 5);
        A.label "store";
        A.mov (A.imm 0) (A.Didx (5, A.Num 0));
        A.label "done";
      ]
  in
  List.iter
    (fun mode ->
      check_violations (Iso.name mode)
        [ (I.symbol image "store",
           "store address not proven inside the app data section") ]
        (V.verify_app ~image ~mode ~prefix:"app"))
    checked_modes

(* An [@Rn+] base moves as soon as its operand is read.  RRA @R5+ moves
   R5 to the end of the data section, where the next store lands; MOV
   and ADD @R5+, 0(R5) store at the moved base, since the machine
   increments R5 before it resolves the destination.  Under the MPU the
   verifier leaves upper bounds to the hardware, so only the two modes
   that prove them are checked. *)
let test_autoinc () =
  let fmt1 op = A.Ins (A.I1 (op, W.W16, A.Sinc 5, A.Didx (5, A.Num 0))) in
  List.iter
    (fun (what, body) ->
      let image =
        Hand_app.link
          (A.mov (A.Simm (A.Off ("app_data__end", -2))) (A.Dreg 5) :: body)
      in
      List.iter
        (fun mode ->
          check_violations
            (what ^ ", " ^ Iso.name mode)
            [ (I.symbol image "store",
               "store address not proven inside the app data section") ]
            (V.verify_app ~image ~mode ~prefix:"app"))
        [ Iso.Feature_limited; Iso.Software_only ])
    [
      ( "RRA @R5+",
        [
          A.Ins (A.I2 (O.RRA, W.W16, A.Sinc 5));
          A.label "store";
          A.mov (A.imm 0x1234) (A.Didx (5, A.Num 0));
        ] );
      ("MOV @R5+, 0(R5)", [ A.label "store"; fmt1 O.MOV ]);
      ("ADD @R5+, 0(R5)", [ A.label "store"; fmt1 O.ADD ]);
    ]

(* A single-operand store to 0(SP) between the return-address guard
   and RET rewrites the address the guard proved. *)
let test_store_after_return_guard () =
  let guard bound ok cond =
    [
      A.cmp (A.Simm (A.Sym bound)) (A.Didx (1, A.Num 0));
      A.jcc cond ok;
      A.br (A.Sym "app$$fault");
      A.label ok;
    ]
  in
  let image =
    Hand_app.link
      (guard "app_code__start" "lo_ok" O.JC
      @ guard "app_code__end" "hi_ok" O.JNC
      @ [
          A.Ins (A.I2 (O.SWPB, W.W16, A.Sidx (1, A.Num 0)));
          A.label "ret";
          A.ret;
        ])
  in
  let ret = I.symbol image "ret" in
  List.iter
    (fun mode ->
      check_violations (Iso.name mode)
        [ (ret, "return address not proven inside the app code section") ]
        (V.verify_app ~image ~mode ~prefix:"app");
      match Cfi.reconstruct ~image ~mode ~prefix:"app" with
      | Ok _ -> Alcotest.failf "%s: CFI accepted" (Iso.name mode)
      | Error vs ->
        Alcotest.(check (list (pair int string)))
          (Iso.name mode ^ ": CFI")
          [ (ret, "RET without a dominating return-address guard") ]
          (List.map (fun v -> (v.Cfi.cv_addr, v.Cfi.cv_reason)) vs))
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* RRA.B keeps bit 7: 0x80 shifts to 0xC0, not 0x40, so the index
   takes the store past the data section (an upper bound, which the
   verifier leaves to the MPU in that mode). *)
let test_byte_rra () =
  let image =
    Hand_app.link
      [
        A.movb (A.imm 0x80) (A.Dreg 5);
        A.Ins (A.I2 (O.RRA, W.W8, A.Sreg 5));
        A.add (A.Simm (A.Sym "app_data__start")) (A.Dreg 5);
        A.label "store";
        A.mov (A.imm 0) (A.Didx (5, A.Num 0));
      ]
  in
  List.iter
    (fun mode ->
      check_violations (Iso.name mode)
        [ (I.symbol image "store",
           "store address not proven inside the app data section") ]
        (V.verify_app ~image ~mode ~prefix:"app"))
    [ Iso.Feature_limited; Iso.Software_only ]

(* MOV.B #imm, PC and MOV.B @SP+, PC keep only the low byte, so neither
   is the BR or RET its word form is: the machine would land in the
   peripheral page. *)
let test_byte_transfers () =
  let image =
    Hand_app.link
      [
        A.label "br";
        A.Ins (A.I1 (O.MOV, W.W8, A.Simm (A.Sym "app$$exit"), A.Dreg 0));
        A.label "ret";
        A.Ins (A.I1 (O.MOV, W.W8, A.Sinc 1, A.Dreg 0));
      ]
  in
  let at l = I.symbol image l in
  List.iter
    (fun mode ->
      check_violations (Iso.name mode)
        [ (at "br", "computed branch in application code") ]
        (V.verify_app ~image ~mode ~prefix:"app");
      match Cfi.reconstruct ~image ~mode ~prefix:"app" with
      | Ok _ -> Alcotest.failf "%s: CFI accepted" (Iso.name mode)
      | Error vs ->
        Alcotest.(check (list (pair int string)))
          (Iso.name mode ^ ": CFI")
          (List.map
             (fun l -> (at l, "computed jump (PC written from a register)"))
             [ "br"; "ret" ])
          (List.map (fun v -> (v.Cfi.cv_addr, v.Cfi.cv_reason)) vs))
    checked_modes

(* ------------------------------------------------------------------ *)
(* Widening and offsets *)

(* Pointer walks with no bound: R5 moves by 2 on every trip, so the
   loop's entry state keeps changing until the ninth change widens it.
   The first loop stores through R5.  The other two move R5 into R4
   and store through 0(R4), where R4 is the trusted frame pointer only
   on the first trip: the widened state must keep R4 unknown rather
   than prove the store as a frame store. *)
let test_widening () =
  let walk store_base step =
    [
      A.mov (A.imm Hand_app.data_lo) (A.Dreg 5);
      A.label "loop";
      A.mov (A.imm 0) (A.Didx (store_base, A.Num 0));
    ]
    @ (if store_base = 4 then [ A.mov (A.Sreg 5) (A.Dreg 4) ] else [])
    @ [ step (A.imm 2) (A.Dreg 5); A.jmp "loop" ]
  in
  List.iter
    (fun (what, body) ->
      let image = Hand_app.link body in
      List.iter
        (fun mode ->
          check_violations
            (what ^ ", " ^ Iso.name mode)
            [ (I.symbol image "loop",
               "store address not proven inside the app data section") ]
            (V.verify_app ~image ~mode ~prefix:"app"))
        checked_modes;
      Alcotest.(check bool) (what ^ ", no-isolation accepts") true
        (Result.is_ok
           (V.verify_app ~image ~mode:Iso.No_isolation ~prefix:"app")))
    [
      ("0(R5), R5 up", walk 5 A.add);
      ("0(R4), R5 up", walk 4 A.add);
      ("0(R4), R5 down", walk 4 A.sub);
    ]

(* A bounded walk: R5 starts at data_lo and moves up by 2 while below
   data_lo + 0x20.  Its lower bound never moves and the CMP/JC pair
   bounds it above, so widening only what still changes keeps the
   store proven. *)
let test_bounded_walk () =
  let image =
    Hand_app.link
      [
        A.mov (A.imm Hand_app.data_lo) (A.Dreg 5);
        A.label "loop";
        A.cmp (A.imm (Hand_app.data_lo + 0x20)) (A.Dreg 5);
        A.jcc O.JC "done";
        A.mov (A.imm 0) (A.Didx (5, A.Num 0));
        A.add (A.imm 2) (A.Dreg 5);
        A.jmp "loop";
        A.label "done";
      ]
  in
  List.iter
    (fun mode ->
      match V.verify_app ~image ~mode ~prefix:"app" with
      | Ok st ->
        Alcotest.(check int) (Iso.name mode ^ ": store proved") 1
          st.V.v_stores
      | Error vs ->
        Alcotest.failf "%s: bounded walk rejected: %s" (Iso.name mode)
          (String.concat "; "
             (List.map (Format.asprintf "%a" V.pp_violation) vs)))
    checked_modes

(* x(Rn) offsets arrive signed from the decoder: -2(R5) with R5 at
   data_lo + 4 stores inside the data section, -4(R5) with R5 at
   data_lo + 2 stores below it. *)
let test_negative_offset () =
  let store base off =
    Hand_app.link
      [
        A.mov (A.imm (Hand_app.data_lo + base)) (A.Dreg 5);
        A.label "store";
        A.mov (A.imm 1) (A.Didx (5, A.Num off));
      ]
  in
  let inside = store 4 (-2) and below = store 2 (-4) in
  List.iter
    (fun mode ->
      (match V.verify_app ~image:inside ~mode ~prefix:"app" with
      | Ok st ->
        Alcotest.(check int) (Iso.name mode ^ ": -2(R5) proved") 1
          st.V.v_stores
      | Error vs ->
        Alcotest.failf "%s: -2(R5) rejected: %s" (Iso.name mode)
          (String.concat "; " (List.map (fun v -> v.V.vreason) vs)));
      check_violations
        (Iso.name mode ^ ": -4(R5)")
        [ (I.symbol below "store",
           "store address not proven inside the app data section") ]
        (V.verify_app ~image:below ~mode ~prefix:"app"))
    checked_modes

(* ------------------------------------------------------------------ *)
(* Stats and error handling *)

let test_stats () =
  let fw = build Iso.Software_only (app_named "quicksort") in
  match verify fw "quicksort" Iso.Software_only with
  | Error _ -> Alcotest.fail "quicksort rejected"
  | Ok st ->
    Alcotest.(check bool) "instructions seen" true (st.V.v_insns > 0);
    Alcotest.(check bool) "blocks seen" true (st.V.v_blocks > 0);
    Alcotest.(check bool) "stores proved" true (st.V.v_stores >= 1);
    Alcotest.(check bool) "returns proved" true (st.V.v_rets >= 1)

let test_unknown_prefix () =
  let fw = build Iso.Software_only (app_named "quicksort") in
  match
    V.verify_app ~image:fw.Aft.fw_image ~mode:Iso.Software_only ~prefix:"nope"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown prefix"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [
      ( "accept",
        List.map
          (fun mode ->
            Alcotest.test_case
              ("all suite apps under " ^ Iso.name mode)
              `Quick (test_accepts mode))
          Iso.all
        @ [
            Alcotest.test_case "shadow stack (software)" `Quick
              (test_accepts_shadow Iso.Software_only);
            Alcotest.test_case "shadow stack (mpu)" `Quick
              (test_accepts_shadow Iso.Mpu_assisted);
            Alcotest.test_case "elision off (software)" `Quick
              (test_accepts_no_elide Iso.Software_only);
            Alcotest.test_case "elision off (mpu)" `Quick
              (test_accepts_no_elide Iso.Mpu_assisted);
          ] );
      ( "reject",
        [
          Alcotest.test_case "corrupted guard (software)" `Quick
            (test_rejects_corrupt Iso.Software_only);
          Alcotest.test_case "corrupted guard (mpu)" `Quick
            (test_rejects_corrupt Iso.Mpu_assisted);
        ] );
      ( "effects",
        [
          Alcotest.test_case "PC writes agree with CFI" `Quick test_pc_writes;
          Alcotest.test_case "CMP to PC refines nothing" `Quick
            test_cmp_pc_not_refined;
          Alcotest.test_case "autoincrement moves the base first" `Quick
            test_autoinc;
          Alcotest.test_case "store after the return guard" `Quick
            test_store_after_return_guard;
          Alcotest.test_case "byte-width BR and RET" `Quick
            test_byte_transfers;
          Alcotest.test_case "RRA.B keeps bit 7" `Quick test_byte_rra;
        ] );
      ( "widening",
        [
          Alcotest.test_case "unbounded pointer walk" `Quick test_widening;
          Alcotest.test_case "bounded pointer walk" `Quick test_bounded_walk;
          Alcotest.test_case "negative x(Rn) offset" `Quick
            test_negative_offset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats sanity" `Quick test_stats;
          Alcotest.test_case "unknown prefix" `Quick test_unknown_prefix;
        ] );
    ]
