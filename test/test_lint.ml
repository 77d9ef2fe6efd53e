(* Tests for the static-certification subsystem: CFI reconstruction,
   binary stack bounds, gate-argument provenance and the unified lint
   report. *)

module H = Test_support.Harness
module Iso = Amulet_cc.Isolation
module Apis = Amulet_cc.Apis
module I = Amulet_link.Image
module An = Amulet_analysis
module Aft = Amulet_aft.Aft
module Suite = Amulet_apps.Suite

let modes = Iso.all

(* ------------------------------------------------------------------ *)
(* CFI accepts everything the toolchain produces *)

let cfi_ok ~mode ~prefix image label =
  match An.Cfi.reconstruct ~image ~mode ~prefix with
  | Ok _ -> ()
  | Error vs ->
    Alcotest.failf "%s: CFI rejected:@.%s" label
      (String.concat "\n"
         (List.map (Format.asprintf "%a" An.Cfi.pp_violation) vs))

let test_cfi_accepts_harness () =
  let src =
    "int g[8];\n\
     int mul(int a, int b) { return a * b; }\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) g[i] = mul(i, i + 1) % 7;\n\
    \  return g[3] + g[7 - 2];\n\
     }"
  in
  List.iter
    (fun mode ->
      let _cu, image = H.build ~mode src in
      cfi_ok ~mode ~prefix:"prog" image (Iso.name mode))
    modes

let test_cfi_accepts_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          cfi_ok ~mode ~prefix:spec.name fw.Aft.fw_image
            (Printf.sprintf "%s/%s" (Iso.name mode) spec.name))
        specs)
    modes

let test_cfi_shadow () =
  let src = "int f(int n) { return n + 1; }\nint main() { return f(41); }" in
  List.iter
    (fun mode ->
      let _cu, image = H.build ~mode ~shadow:true src in
      cfi_ok ~mode ~prefix:"prog" image ("shadow/" ^ Iso.name mode))
    modes

(* ------------------------------------------------------------------ *)
(* CFI rejects a patched-in computed jump with the instruction as
   witness *)

let patch_word image addr w =
  let chunks =
    List.map
      (fun (base, b) ->
        if addr >= base && addr + 1 < base + Bytes.length b then begin
          let b = Bytes.copy b in
          Bytes.set b (addr - base) (Char.chr (w land 0xFF));
          Bytes.set b (addr - base + 1) (Char.chr ((w lsr 8) land 0xFF));
          (base, b)
        end
        else (base, b))
      image.I.chunks
  in
  I.with_chunks image chunks

let test_cfi_rejects_computed_jump () =
  let mode = Iso.Mpu_assisted in
  let _cu, image =
    H.build ~mode "int f(int n) { return n * 3; }\nint main() { return f(5); }"
  in
  (* overwrite the single-word instruction at f's entry (PUSH FP) with
     MOV R5, PC — a computed jump no static policy can classify *)
  let entry = I.symbol image "prog$f" in
  let bad =
    List.hd
      (Amulet_mcu.Encode.encode
         (Amulet_mcu.Opcode.Fmt1
            (Amulet_mcu.Opcode.MOV, Amulet_mcu.Word.W16,
             Amulet_mcu.Opcode.S_reg 5, Amulet_mcu.Opcode.D_reg 0)))
  in
  let image = patch_word image entry bad in
  match An.Cfi.reconstruct ~image ~mode ~prefix:"prog" with
  | Ok _ -> Alcotest.fail "computed jump accepted"
  | Error vs ->
    Alcotest.(check bool)
      "witness names the offending instruction" true
      (List.exists
         (fun (v : An.Cfi.violation) ->
           v.cv_addr = entry
           && v.cv_reason = "computed jump (PC written from a register)")
         vs)

(* MOV @R5+, R6 moves R5 after the code-bounds guard proved it, so the
   guard no longer covers the call through R5. *)
let test_cfi_autoinc_clobbers_guard () =
  let module A = Amulet_link.Asm in
  let image =
    Test_support.Hand_app.link
      [
        A.cmp (A.Simm (A.Sym "app_code__start")) (A.Dreg 5);
        A.jcc Amulet_mcu.Opcode.JC "lo_ok";
        A.br (A.Sym "app$$fault");
        A.label "lo_ok";
        A.cmp (A.Simm (A.Sym "app_code__end")) (A.Dreg 5);
        A.jcc Amulet_mcu.Opcode.JNC "hi_ok";
        A.br (A.Sym "app$$fault");
        A.label "hi_ok";
        A.mov (A.Sinc 5) (A.Dreg 6);
        A.label "call";
        A.call_reg 5;
      ]
  in
  List.iter
    (fun mode ->
      match An.Cfi.reconstruct ~image ~mode ~prefix:"app" with
      | Ok _ -> Alcotest.failf "%s: CFI accepted" (Iso.name mode)
      | Error vs ->
        Alcotest.(check (list (pair int string)))
          (Iso.name mode)
          [ (I.symbol image "call",
             "indirect call without a dominating code-bounds guard") ]
          (List.map
             (fun (v : An.Cfi.violation) -> (v.cv_addr, v.cv_reason))
             vs))
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* ------------------------------------------------------------------ *)
(* Binary stack bounds *)

let cfg_of ~mode ~prefix image =
  match An.Cfi.reconstruct ~image ~mode ~prefix with
  | Ok cfg -> cfg
  | Error vs ->
    Alcotest.failf "CFI rejected %s:@.%s" prefix
      (String.concat "\n"
         (List.map (Format.asprintf "%a" An.Cfi.pp_violation) vs))

let test_stackcert_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let cfg = cfg_of ~mode ~prefix:spec.name fw.Aft.fw_image in
          let r = An.Stackcert.analyze ~cfg in
          match r.An.Stackcert.sc_verdict with
          | An.Stackcert.Certified _ -> ()
          | An.Stackcert.Unbounded { fenced; _ } ->
            (* only the recursive quicksort variant may be unbounded,
               and in MPU mode the fence must be recognised *)
            Alcotest.(check string) "only quicksort recurses" "quicksort"
              spec.name;
            Alcotest.(check bool) "fence tracks mode" (Iso.uses_mpu mode)
              fenced
          | v ->
            Alcotest.failf "%s/%s: %a" (Iso.name mode) spec.name
              An.Stackcert.pp_verdict v)
        specs)
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* The binary bound must never exceed what the AFT actually reserved
   (the compiler's source-level estimate plus its safety margin) —
   otherwise either analysis is wrong. *)
let test_stackcert_cross_check () =
  let mode = Iso.Mpu_assisted in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  List.iter2
    (fun (spec : Aft.app_spec) (ab : Aft.app_build) ->
      let cfg = cfg_of ~mode ~prefix:spec.name fw.Aft.fw_image in
      let r = An.Stackcert.analyze ~cfg in
      match r.An.Stackcert.sc_verdict with
      | An.Stackcert.Certified { bound; _ } ->
        let src = ab.Aft.ab_compiled.Amulet_cc.Driver.stack_bytes in
        if bound > src + Aft.stack_margin then
          Alcotest.failf "%s: binary bound %d > source %d + margin %d"
            spec.name bound src Aft.stack_margin
      | _ -> ())
    specs fw.Aft.fw_apps

(* A function-pointer call hides the big callee from the source-level
   call graph, so the AFT sizes the region for main alone; the binary
   pass resolves the address-taken callee and must reject the image
   with the real chain as witness. *)
let overflow_src =
  "int big(int x) {\n\
  \  int a[600];\n\
  \  a[0] = x; a[599] = x + 1;\n\
  \  return a[0] + a[599];\n\
   }\n\
   int (*fp)(int);\n\
   int main() { fp = big; return fp(2); }"

let test_stackcert_rejects_overflow () =
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [ { Aft.name = "ovf"; source = overflow_src } ] in
  let cfg = cfg_of ~mode ~prefix:"ovf" fw.Aft.fw_image in
  let r = An.Stackcert.analyze ~cfg in
  match r.An.Stackcert.sc_verdict with
  | An.Stackcert.Rejected { bound; region; chain } ->
    Alcotest.(check bool) "bound exceeds region" true (bound > region);
    Alcotest.(check bool)
      "witness chain reaches the hidden callee" true
      (List.mem "ovf$big" chain && List.mem "ovf$main" chain)
  | v -> Alcotest.failf "expected rejection, got %a" An.Stackcert.pp_verdict v

(* A loop that pushes on every trip moves the SP displacement at its
   header on every join, and the 33rd such join gives up.  The pass
   counts joins, not trips, so a loop that runs three times is
   rejected too. *)
let test_stackcert_net_growth () =
  let module A = Amulet_link.Asm in
  let why = "stack depth does not converge (net growth in a loop)" in
  List.iter
    (fun (what, body) ->
      let image = Test_support.Hand_app.link body in
      List.iter
        (fun mode ->
          let what = what ^ ", " ^ Iso.name mode in
          let cfg = cfg_of ~mode ~prefix:"app" image in
          match (An.Stackcert.analyze ~cfg).An.Stackcert.sc_verdict with
          | An.Stackcert.Unanalyzable { addr; reason } ->
            Alcotest.(check (pair int string))
              what (I.symbol image "loop", why) (addr, reason)
          | v -> Alcotest.failf "%s: %a" what An.Stackcert.pp_verdict v)
        modes)
    [
      ("PUSH R4; JMP", [ A.label "loop"; A.push (A.Sreg 4); A.jmp "loop" ]);
      ( "three trips",
        [
          A.mov (A.imm 3) (A.Dreg 6);
          A.label "loop";
          A.push (A.Sreg 4);
          A.sub (A.imm 1) (A.Dreg 6);
          A.jcc Amulet_mcu.Opcode.JNE "loop";
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Gate-argument provenance *)

let gate_of ~mode ~prefix image =
  let cfg = cfg_of ~mode ~prefix image in
  let stack = An.Stackcert.analyze ~cfg in
  An.Gate_taint.analyze ~cfg ~stack

(* In separate-stack modes every pointer a suite app passes to a gate
   is either a link-time constant or a frame slot with a certified FP
   bound, so every site must certify. *)
let test_gate_certifies_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let gt = gate_of ~mode ~prefix:spec.name fw.Aft.fw_image in
          List.iter
            (fun (s : An.Gate_taint.site) ->
              if not s.An.Gate_taint.gs_certified then
                Alcotest.failf "%s/%s: %a" (Iso.name mode) spec.name
                  An.Gate_taint.pp_site s)
            gt.An.Gate_taint.gt_sites)
        specs)
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* With a shared stack FP is not statically boundable: frame-relative
   arguments must stay uncertified while constant ones still certify. *)
let test_gate_shared_stack () =
  let mode = Iso.No_isolation in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  let certified app =
    (gate_of ~mode ~prefix:app fw.Aft.fw_image).An.Gate_taint.gt_certified
  in
  (* pedometer reads accel samples into a local *)
  Alcotest.(check bool)
    "frame-relative arg stays dynamic" false
    (List.mem "api_read_accel" (certified "pedometer"));
  (* battery_meter passes globals only *)
  Alcotest.(check (list string))
    "constant args certify" [ "api_display_write"; "api_log_append" ]
    (certified "battery_meter")

(* A pointer that arrives as a function parameter has unknown
   provenance; the service must stay uncertified. *)
let test_gate_rejects_unknown_provenance () =
  let mode = Iso.Mpu_assisted in
  let src =
    "char buf[8];\n\
     int send(char *p, int n) { return api_log_append(p, n); }\n\
     int handle_timer(int t) { return send(buf, 4); }"
  in
  let fw = Aft.build ~mode [ { Aft.name = "fwd"; source = src } ] in
  let gt = gate_of ~mode ~prefix:"fwd" fw.Aft.fw_image in
  Alcotest.(check (list string)) "nothing certifies" []
    gt.An.Gate_taint.gt_certified;
  Alcotest.(check bool) "witness names the unknown argument" true
    (List.exists
       (fun (s : An.Gate_taint.site) ->
         s.An.Gate_taint.gs_service = "api_log_append"
         && (not s.An.Gate_taint.gs_certified)
         && s.An.Gate_taint.gs_reason = "arg 0: provenance unknown")
       gt.An.Gate_taint.gt_sites)

(* MOV @R12+, R6 moves the pointer 2 bytes on, so the 6 bytes
   api_read_accel_xyz writes end 2 bytes past the region: the site must
   keep its dynamic check. *)
let test_gate_autoinc () =
  let module A = Amulet_link.Asm in
  let image =
    Test_support.Hand_app.link
      [
        A.mov (A.Simm (A.Off ("app_data__end", -6))) (A.Dreg 12);
        A.mov (A.Sinc 12) (A.Dreg 6);
        A.label "call";
        A.call (Apis.gate_label "api_read_accel_xyz");
      ]
  in
  List.iter
    (fun mode ->
      Alcotest.(check (list string)) (Iso.name mode) []
        (An.Lint.certified_gates ~image ~mode ~prefix:"app");
      let r = An.Lint.run ~image ~mode ~apps:[ "app" ] in
      Alcotest.(check int) (Iso.name mode ^ ": errors") 0 r.An.Lint.l_errors;
      Alcotest.(check (list (option int)))
        (Iso.name mode ^ ": gate notes")
        [ Some (I.symbol image "call") ]
        (List.filter_map
           (fun (d : An.Lint.diag) ->
             if d.An.Lint.d_pass = "gates" then Some d.An.Lint.d_addr else None)
           r.An.Lint.l_diags))
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* R12 moves in a loop, so its interval at the loop header changes on
   every join until the ninth change widens it to Top: the site keeps
   its dynamic check.  Set once, the same pointer certifies. *)
let test_gate_widening () =
  let module A = Amulet_link.Asm in
  let check what body (certified, reason) =
    let image =
      Test_support.Hand_app.link
        (A.mov (A.imm Test_support.Hand_app.data_lo) (A.Dreg 12)
         :: body
        @ [ A.label "call"; A.call (Apis.gate_label "api_read_accel_xyz") ])
    in
    List.iter
      (fun mode ->
        Alcotest.(check (list (triple int bool string)))
          (what ^ ", " ^ Iso.name mode)
          [ (I.symbol image "call", certified, reason) ]
          (List.map
             (fun (s : An.Gate_taint.site) ->
               ( s.An.Gate_taint.gs_addr,
                 s.An.Gate_taint.gs_certified,
                 s.An.Gate_taint.gs_reason ))
             (gate_of ~mode ~prefix:"app" image).An.Gate_taint.gt_sites))
      modes
  in
  check "pointer moved in a loop"
    [
      A.label "loop";
      A.add (A.imm 2) (A.Dreg 12);
      A.cmp (A.imm 0) (A.Dreg 13);
      A.jcc Amulet_mcu.Opcode.JNE "loop";
    ]
    (false, "arg 0: provenance unknown");
  check "pointer set once"
    [ A.mov (A.imm 2) (A.Dreg 13) ]
    (true, "arg 0: [6000,6000]+6 within the D region")

(* ------------------------------------------------------------------ *)
(* Unified lint report *)

let test_lint_suite_clean () =
  let mode = Iso.Mpu_assisted in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  let image = fw.Aft.fw_image in
  let r = An.Lint.run ~image ~mode ~apps:(An.Lint.apps_of image) in
  Alcotest.(check int) "no errors" 0 r.An.Lint.l_errors;
  Alcotest.(check int)
    "one report per app"
    (List.length specs)
    (List.length r.An.Lint.l_apps)

(* An image with no app sections must produce an explicit error, not a
   vacuous pass. *)
let test_lint_zero_apps () =
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [] in
  let image = fw.Aft.fw_image in
  Alcotest.(check (list string)) "no apps detected" [] (An.Lint.apps_of image);
  let r = An.Lint.run ~image ~mode ~apps:[] in
  Alcotest.(check int) "one error" 1 r.An.Lint.l_errors;
  match r.An.Lint.l_diags with
  | [ d ] ->
    Alcotest.(check string) "image-level pass" "image" d.An.Lint.d_pass;
    Alcotest.(check string)
      "explicit message" "image has no app code sections: nothing was certified"
      d.An.Lint.d_message
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d"
            (List.length ds)

(* The AFT stamps certification results into the image notes; the
   kernel reads them back to elide gate-pointer validation. *)
let test_lint_notes_stamped () =
  let mode = Iso.Mpu_assisted in
  let spec = Suite.spec_for mode Suite.gateheavy in
  let fw = Aft.build ~mode [ spec ] in
  Alcotest.(check (list string))
    "gateheavy gates certified"
    [ "api_log_append"; "api_read_accel" ]
    (Apis.certified_services fw.Aft.fw_image ~app:"gateheavy");
  let fw' = Aft.build ~mode ~certify:false [ spec ] in
  Alcotest.(check bool) "no note without certification" true
    (I.note fw'.Aft.fw_image (Apis.certified_note_key "gateheavy") = None);
  (* certification only appends notes after linking: the campaign's
     placeholder builds skip it, and resolve the same layout and
     addresses *)
  let i = fw.Aft.fw_image and i' = fw'.Aft.fw_image in
  Alcotest.(check bool) "same chunks" true (i.I.chunks = i'.I.chunks);
  Alcotest.(check (list (pair string int))) "same symbols" i.I.symbols
    i'.I.symbols;
  Alcotest.(check int) "same entry" i.I.entry i'.I.entry;
  Alcotest.(check bool) "same layout" true
    (fw.Aft.fw_layout = fw'.Aft.fw_layout);
  let cert_gates (k, _) =
    String.starts_with ~prefix:(Apis.certified_note_key "") k
  in
  Alcotest.(check (list (pair string string))) "notes differ in cert.gates.*"
    (List.filter (fun n -> not (cert_gates n)) i.I.notes)
    i'.I.notes

(* [certified_gates] runs only the analyses [r_certified] rests on, so
   it must agree with the full report on the same image: the AFT stamps
   it into the cert.gates notes, and the kernel's gate-validation
   charge reads those notes. *)
let test_certified_gates_parity () =
  let certifying = ref 0 in
  let parity ~mode ~apps image =
    let report = An.Lint.run ~image ~mode ~apps in
    List.iter2
      (fun prefix (r : An.Lint.app_report) ->
        let lean = An.Lint.certified_gates ~image ~mode ~prefix in
        if lean <> [] then incr certifying;
        Alcotest.(check (list string))
          (Printf.sprintf "%s/%s" (Iso.name mode) prefix)
          r.An.Lint.r_certified lean)
      apps report.An.Lint.l_apps
  in
  List.iter
    (fun mode ->
      List.iter
        (fun specs ->
          let fw = Aft.build ~mode specs in
          parity ~mode
            ~apps:(List.map (fun (s : Aft.app_spec) -> s.Aft.name) specs)
            fw.Aft.fw_image)
        [
          List.map (Suite.spec_for mode) Suite.all;
          [ Suite.spec_for mode Suite.security_victim;
            Suite.spec_for mode Suite.security_carrier ];
        ])
    modes;
  Alcotest.(check bool) "some app certifies a gate" true (!certifying > 0);
  (* an image CFI rejects certifies nothing, in both forms *)
  let mode = Iso.Mpu_assisted in
  let _cu, image =
    H.build ~mode "int f(int n) { return n * 3; }\nint main() { return f(5); }"
  in
  let mov_r5_pc =
    List.hd
      (Amulet_mcu.Encode.encode
         (Amulet_mcu.Opcode.Fmt1
            (Amulet_mcu.Opcode.MOV, Amulet_mcu.Word.W16,
             Amulet_mcu.Opcode.S_reg 5, Amulet_mcu.Opcode.D_reg 0)))
  in
  parity ~mode ~apps:[ "prog" ]
    (patch_word image (I.symbol image "prog$f") mov_r5_pc)

(* ------------------------------------------------------------------ *)
(* The fixpoint engine *)

(* A random graph of up to 12 nodes, each edge adding a weight of 0-4
   to a state capped at [cap]; states join by max.  From the third
   change at a node on, the widening adds 10 more, up to [cap]: it goes
   up, as [Fixpoint.solve] requires, but like the certifier's
   widenings not always to the top, and any cycle of positive weight
   reaches [cap]. *)
let cap = 60

let gen_fixpoint_case =
  let open QCheck2.Gen in
  let* n = 1 -- 12 in
  let node = 0 -- (n - 1) in
  let* succs = list_repeat n (list_size (0 -- 3) (pair node (0 -- 4))) in
  let* entries = list_size (1 -- 3) (pair node (0 -- 10)) in
  pure (Array.of_list succs, entries)

let print_fixpoint_case (succs, entries) =
  let edges =
    List.concat
      (List.mapi
         (fun u l -> List.map (fun (v, w) -> Printf.sprintf "%d-%d->%d" u w v) l)
         (Array.to_list succs))
  in
  Printf.sprintf "edges %s; entries %s" (String.concat " " edges)
    (String.concat " "
       (List.map (fun (a, s) -> Printf.sprintf "%d:%d" a s) entries))

(* The table is a post-fixpoint (joining any entry's state, or any
   state a stored one transfers, changes nothing) and holds exactly the
   nodes reachable from the entries. *)
let prop_fixpoint =
  QCheck2.Test.make ~count:1000
    ~name:"Fixpoint.solve: post-fixpoint over the reachable nodes"
    ~print:print_fixpoint_case gen_fixpoint_case (fun (succs, entries) ->
      let transfer a s =
        List.map (fun (v, w) -> (v, Int.min cap (s + w))) succs.(a)
      in
      let tbl =
        An.Fixpoint.solve ~join:Int.max ~equal:Int.equal
          ~widen:(fun _ ~joins ~old:_ s ->
            if joins >= 3 then Int.min cap (s + 10) else s)
          ~transfer entries
      in
      let stable (a, s) =
        match Hashtbl.find_opt tbl a with
        | Some t -> Int.max t s = t
        | None -> false
      in
      let reach = Hashtbl.create 16 in
      let rec visit a =
        if not (Hashtbl.mem reach a) then begin
          Hashtbl.replace reach a ();
          List.iter (fun (v, _) -> visit v) succs.(a)
        end
      in
      List.iter (fun (a, _) -> visit a) entries;
      List.for_all stable entries
      && Hashtbl.fold
           (fun a s ok -> ok && List.for_all stable (transfer a s))
           tbl true
      && Hashtbl.length tbl = Hashtbl.length reach
      && Hashtbl.fold (fun a _ ok -> ok && Hashtbl.mem reach a) tbl true)

let suite =
  [
    ( "cfi",
      [
        Alcotest.test_case "accepts harness programs" `Quick
          test_cfi_accepts_harness;
        Alcotest.test_case "accepts the app suite" `Quick
          test_cfi_accepts_suite;
        Alcotest.test_case "accepts shadow builds" `Quick test_cfi_shadow;
        Alcotest.test_case "rejects computed jump" `Quick
          test_cfi_rejects_computed_jump;
        Alcotest.test_case "autoincrement clobbers a call guard" `Quick
          test_cfi_autoinc_clobbers_guard;
      ] );
    ( "gate-taint",
      [
        Alcotest.test_case "certifies suite sites (separate stacks)" `Quick
          test_gate_certifies_suite;
        Alcotest.test_case "shared stack keeps frame args dynamic" `Quick
          test_gate_shared_stack;
        Alcotest.test_case "rejects unknown provenance" `Quick
          test_gate_rejects_unknown_provenance;
        Alcotest.test_case "autoincremented pointer stays dynamic" `Quick
          test_gate_autoinc;
        Alcotest.test_case "pointer moved in a loop widens" `Quick
          test_gate_widening;
      ] );
    ( "stackcert",
      [
        Alcotest.test_case "certifies the app suite" `Quick
          test_stackcert_suite;
        Alcotest.test_case "binary bound within source bound" `Quick
          test_stackcert_cross_check;
        Alcotest.test_case "rejects hidden overflow" `Quick
          test_stackcert_rejects_overflow;
        Alcotest.test_case "net growth in a loop" `Quick
          test_stackcert_net_growth;
      ] );
    ("fixpoint", [ Test_support.Seed.to_alcotest prop_fixpoint ]);
    ( "report",
      [
        Alcotest.test_case "suite lints clean under mpu" `Quick
          test_lint_suite_clean;
        Alcotest.test_case "zero apps is an error" `Quick test_lint_zero_apps;
        Alcotest.test_case "certification notes stamped" `Quick
          test_lint_notes_stamped;
        Alcotest.test_case "certified_gates = report" `Quick
          test_certified_gates_parity;
      ] );
  ]

let () = Alcotest.run "lint" suite
