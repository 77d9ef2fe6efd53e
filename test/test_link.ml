(* Assembler/linker unit tests plus AFT layout invariants. *)

module A = Amulet_link.Asm
module Assembler = Amulet_link.Assembler
module Linker = Amulet_link.Linker
module Image = Amulet_link.Image
module Layout = Amulet_aft.Layout
module Aft = Amulet_aft.Aft
module O = Amulet_mcu.Opcode
module Mpu = Amulet_mcu.Mpu
module Iso = Amulet_cc.Isolation
module Apis = Amulet_cc.Apis
module Attacks = Amulet_sec.Attacks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let section name base items =
  { Linker.name; base; layout = Assembler.layout items }

(* Each assembler and linker error keeps its exception and message. *)
let expect_error what exn f =
  match f () with
  | _ -> Alcotest.failf "%s: no error" what
  | exception e ->
    Alcotest.(check string) what (Printexc.to_string exn) (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Assembler *)

let size items = Assembler.size (Assembler.layout items)

let test_sizes () =
  check_int "reg-reg insn" 2 (size [ A.mov (A.Sreg 5) (A.Dreg 6) ]);
  check_int "cg immediate" 2 (size [ A.mov (A.imm 1) (A.Dreg 6) ]);
  check_int "big immediate" 4 (size [ A.mov (A.imm 300) (A.Dreg 6) ]);
  (* symbolic immediates always take an extension word *)
  check_int "symbolic immediate" 4 (size [ A.mov (A.sym "x") (A.Dreg 6) ]);
  check_int "abs-abs" 6
    (size [ A.mov (A.Sabs (A.Num 0x1C00)) (A.Dabs (A.Num 0x1C02)) ]);
  check_int "jump" 2 (size [ A.jmp "l"; A.label "l" ]);
  check_int "dword" 2 (size [ A.Dword (A.Num 5) ]);
  check_int "bytes + align" 4
    (size [ A.Dbytes "abc"; A.Align2; A.Dword (A.Num 1) ] - 2)

let test_labels () =
  let items =
    [ A.label "a"; A.mov (A.Sreg 5) (A.Dreg 6); A.label "b"; A.Dword (A.Num 0) ]
  in
  Alcotest.(check (list (pair string int)))
    "offsets"
    [ ("a", 0); ("b", 2) ]
    (Assembler.labels (Assembler.layout items))

let test_duplicate_label () =
  expect_error "duplicate label" (Assembler.Error "duplicate label x")
    (fun () ->
      Linker.link ~entry:"e"
        [ section "s" 0x4400 [ A.label "e"; A.label "x"; A.nop; A.label "x" ] ])

(* A jump beyond the +/-512-word format-III range must be relaxed to a
   long branch — and still execute correctly. *)
let test_jump_relaxation () =
  let halt = A.mov (A.imm 1) (A.Dabs (A.Num Amulet_mcu.Machine.halt_port)) in
  let items =
    [ A.label "entry"; A.jcc Amulet_mcu.Opcode.JEQ "far"; A.jmp "far" ]
    @ List.init 600 (fun _ -> A.nop)
    @ [ A.label "far"; A.mov (A.imm 0xCAFE) (A.Dreg 10); halt ]
  in
  let image =
    Linker.link ~entry:"entry" [ section "s" 0x4400 items ]
  in
  let m = Amulet_mcu.Machine.create () in
  Image.load image m;
  Amulet_mcu.Machine.reset m;
  (match Amulet_mcu.Machine.run m with
  | Amulet_mcu.Machine.Halted -> ()
  | other ->
    Alcotest.failf "run: %a" Amulet_mcu.Machine.pp_stop_reason other);
  check_int "landed at far" 0xCAFE
    (Amulet_mcu.Registers.get (Amulet_mcu.Machine.regs m) 10)

(* Emitted bytes must agree with the size computation for symbolic
   immediates resolving to CG-encodable values. *)
let test_symbolic_cg_size_agreement () =
  let items = [ A.mov (A.sym "tiny") (A.Dreg 6); A.label "end" ] in
  let image =
    Linker.link ~extra_symbols:[ ("tiny", 8) ] ~entry:"end"
      [ section "s" 0x4400 items ]
  in
  (* "tiny" = 8 is CG-encodable, but the symbolic operand must still
     occupy an extension word so label offsets stay correct *)
  check_int "end offset" (0x4400 + 4) (Image.symbol image "end")

(* ------------------------------------------------------------------ *)
(* One layout per section: emission, the symbol table and relaxation
   agree with it *)

let base = 0x4400

(* The instruction at [here] reaches [target]: either a short jump, or
   one of the two long forms relaxation writes. *)
type reach = Short | Long | Miss

(* The image's word at [a]; 0xFFFF outside every chunk. *)
let word_at (image : Image.t) a =
  match
    List.find_opt
      (fun (b, data) -> a >= b && a + 1 < b + Bytes.length data)
      image.Image.chunks
  with
  | Some (b, data) -> Bytes.get_uint16_le data (a - b)
  | None -> 0xFFFF

let jump_reach (image : Image.t) ~here ~cond ~target =
  let decode addr = fst (Amulet_mcu.Decode.decode ~fetch:(word_at image) ~addr) in
  let is_br addr =
    match decode addr with
    | O.Fmt1 (O.MOV, Amulet_mcu.Word.W16, O.S_immediate a, O.D_reg 0) ->
      a = target
    | _ -> false
  in
  match decode here with
  | O.Jump (c, off) when c = cond && here + 2 + (2 * off) = target -> Short
  | O.Jump (c, 1) when c = cond && cond <> O.JMP ->
    (* Jcc m; JMP s; m: BR #target; s: *)
    if decode (here + 2) = O.Jump (O.JMP, 2) && is_br (here + 4) then Long
    else Miss
  | _ -> if cond = O.JMP && is_br here then Long else Miss

(* Symbolic immediates whose values the constant generator could
   encode: the layout must still give each an extension word. *)
let cg_symbols =
  [ ("cg0", 0); ("cg1", 1); ("cg2", 2); ("cg4", 4); ("cg8", 8);
    ("cgm1", 0xFFFF); ("ext", 0xF000) ]

type piece =
  | P_label of int
  | P_insn of A.item
  | P_space of int
  | P_bytes of int  (* odd length, then Align2 *)
  | P_jump of O.cond * string

let gen_section =
  let open QCheck2.Gen in
  let* nlabels = int_range 1 5 in
  let label i = "L" ^ string_of_int i in
  let insn =
    oneof
      [
        map
          (fun (s, r) -> A.mov (A.sym s) (A.Dreg r))
          (pair (oneofl (List.map fst cg_symbols)) (int_range 4 15));
        map (fun n -> A.add (A.imm n) (A.Dreg 5)) (int_range 0 0xFFFF);
        pure A.nop;
      ]
  in
  let target =
    frequency [ (9, map label (int_range 0 (nlabels - 1))); (1, pure "ext") ]
  in
  let cond =
    oneofl O.[ JNE; JEQ; JNC; JC; JN; JGE; JL; JMP; JMP ]
  in
  let piece =
    frequency
      [
        (3, map (fun i -> P_insn i) insn);
        (2, map (fun n -> P_space (2 * n)) (int_range 0 6));
        (* big gaps put the jumps around the +/-512-word limit *)
        (2, map (fun n -> P_space (2 * n)) (int_range 500 515));
        (1, map (fun n -> P_bytes ((2 * n) + 1)) (int_range 0 3));
        (4, map2 (fun c l -> P_jump (c, l)) cond target);
      ]
  in
  let* body = list_size (int_range 1 14) piece in
  let* spots =
    list_repeat nlabels (int_range 0 (List.length body))
  in
  (* every label defined exactly once, at a random spot of the body *)
  let labels_at k =
    List.concat
      (List.mapi (fun i s -> if s = k then [ P_label i ] else []) spots)
  in
  pure
    (List.concat
       (List.mapi (fun k p -> labels_at k @ [ p ]) body
       @ [ labels_at (List.length body) ]))

(* Items of a generated section: a leading [entry], and each jump
   behind its own [J<i>] label so its address can be looked up. *)
let items_of pieces =
  A.label "entry" :: A.nop
  :: List.concat
       (List.mapi
          (fun i -> function
            | P_label l -> [ A.label ("L" ^ string_of_int l) ]
            | P_insn ins -> [ ins ]
            | P_space n -> [ A.Space n ]
            | P_bytes n -> [ A.Dbytes (String.make n 'x'); A.Align2 ]
            | P_jump (c, l) ->
              [ A.label ("J" ^ string_of_int i); A.jcc c l ])
          pieces)

let jumps_of pieces =
  List.concat
    (List.mapi
       (fun i -> function
         | P_jump (c, l) -> [ ("J" ^ string_of_int i, c, l) ]
         | _ -> [])
       pieces)

let print_pieces pieces =
  String.concat "\n"
    (List.map (Format.asprintf "%a" A.pp_item) (items_of pieces))

let prop_layout_agrees =
  QCheck2.Test.make ~count:300 ~name:"layout = emission = symbols = reach"
    ~print:print_pieces gen_section (fun pieces ->
      let layout = Assembler.layout (items_of pieces) in
      let image =
        Linker.link ~extra_symbols:cg_symbols ~entry:"entry"
          [ { Linker.name = "s"; base; layout } ]
      in
      let emitted =
        match image.Image.chunks with
        | [ (b, data) ] when b = base -> Bytes.length data
        | _ -> -1
      in
      emitted = Assembler.size layout
      && List.for_all
           (fun (l, off) -> Image.symbol image l - base = off)
           (Assembler.labels layout)
      && List.for_all
           (fun (j, cond, l) ->
             jump_reach image ~here:(Image.symbol image j) ~cond
               ~target:(Image.symbol image l)
             <> Miss)
           (jumps_of pieces))

(* A jump exactly at the format-III limit stays short; one word
   further it is relaxed.  Forward: the target is [gap + 2] bytes past
   the jump; backward: the jump sits [gap] bytes past the target. *)
let test_relaxation_boundary () =
  let reach ~forward ~gap cond =
    let items =
      if forward then
        [ A.label "entry"; A.label "j"; A.jcc cond "t"; A.Space gap;
          A.label "t"; A.nop ]
      else
        [ A.label "entry"; A.label "t"; A.Space gap; A.label "j";
          A.jcc cond "t" ]
    in
    let image =
      Linker.link ~entry:"entry"
        [ { Linker.name = "s"; base; layout = Assembler.layout items } ]
    in
    jump_reach image ~here:(Image.symbol image "j") ~cond
      ~target:(Image.symbol image "t")
  in
  let name = function Short -> "short" | Long -> "long" | Miss -> "miss" in
  let check what expected got =
    Alcotest.(check string) what (name expected) (name got)
  in
  List.iter
    (fun cond ->
      let c = O.cond_name cond in
      check (c ^ " +511 words") Short (reach ~forward:true ~gap:1022 cond);
      check (c ^ " +512 words") Long (reach ~forward:true ~gap:1024 cond);
      check (c ^ " -512 words") Short (reach ~forward:false ~gap:1022 cond);
      check (c ^ " -513 words") Long (reach ~forward:false ~gap:1024 cond))
    [ O.JMP; O.JEQ; O.JN ]

(* ------------------------------------------------------------------ *)
(* Linker *)

let test_undefined_symbol () =
  expect_error "undefined symbol" (Linker.Error "undefined symbol missing")
    (fun () ->
      Linker.link ~entry:"e"
        [ section "s" 0x4400 [ A.label "e"; A.call "missing" ] ]);
  expect_error "undefined entry" (Linker.Error "undefined symbol nowhere")
    (fun () -> Linker.link ~entry:"nowhere" [ section "s" 0x4400 [ A.nop ] ])

let test_duplicate_symbol_across_sections () =
  let s1 = section "a" 0x4400 [ A.label "x" ] in
  let s2 = section "b" 0x5000 [ A.label "x" ] in
  expect_error "across sections" (Linker.Error "duplicate symbol x") (fun () ->
      Linker.link ~entry:"x" [ s1; s2 ]);
  expect_error "extra symbol" (Linker.Error "duplicate symbol x") (fun () ->
      Linker.link ~extra_symbols:[ ("x", 1) ] ~entry:"x" [ s1 ])

let test_overlap_detection () =
  let body = List.init 20 (fun _ -> A.nop) in
  let s1 = section "a" 0x4400 (A.label "e" :: body) in
  let s2 = section "b" 0x4410 body in
  expect_error "overlap" (Linker.Error "sections a and b overlap") (fun () ->
      Linker.link ~entry:"e" [ s1; s2 ])

(* An image's chunks share no address: [Image.make] and
   [Image.with_chunks] reject overlapping ones, whatever their order.
   Adjacent chunks and empty ones share none. *)
let test_overlapping_chunks_rejected () =
  let img = Linker.link ~entry:"s__start" [ section "s" 0x4400 [ A.nop ] ] in
  let chunk base n = (base, Bytes.make n '\000') in
  let rejected what chunks =
    (match Image.with_chunks img chunks with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "with_chunks: %s accepted" what);
    match Image.make ~chunks ~table:(Hashtbl.create 1) ~entry:0 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "make: %s accepted" what
  in
  rejected "one shared byte" [ chunk 0x4400 4; chunk 0x4403 2 ];
  rejected "a nested chunk" [ chunk 0x4400 8; chunk 0x4402 2 ];
  rejected "one base twice" [ chunk 0x4400 2; chunk 0x4400 2 ];
  rejected "an overlap out of order" [ chunk 0x4500 4; chunk 0x44FF 2 ];
  let ok = [ chunk 0x4404 2; chunk 0x4400 4; chunk 0x4402 0; chunk 0x4406 1 ] in
  check_int "adjacent and empty chunks" 4
    (List.length (Image.with_chunks img ok).Image.chunks)

(* [Image.make_fetch] keeps the chunk of its last read; it must read
   what the chunk walk of [Test_support.Ref_fetch] reads at every
   address from below the first chunk to past the last, in address
   order and shuffled.  Chunks are adjacent or gapped, of odd and even
   lengths and bases, listed in any order. *)
let prop_fetch_agrees =
  let open QCheck2.Gen in
  let chunk = pair (0 -- 3) (string_size (0 -- 9)) in
  let gen =
    let* first = 0x4400 -- 0x4403 in
    let* specs = list_size (1 -- 6) chunk in
    let chunks, stop =
      List.fold_left
        (fun (acc, base) (gap, data) ->
          let base = base + gap in
          ((base, Bytes.of_string data) :: acc, base + String.length data))
        ([], first) specs
    in
    let* chunks = shuffle_l chunks in
    let+ order = shuffle_l (List.init (stop - first + 6) (fun i -> first - 3 + i)) in
    (chunks, order)
  in
  QCheck2.Test.make ~count:500 ~name:"make_fetch = chunk walk"
    ~print:(fun (chunks, _) ->
      String.concat " "
        (List.map (fun (b, d) -> Printf.sprintf "%04X+%d" b (Bytes.length d)) chunks))
    gen
    (fun (chunks, order) ->
      let img = Image.make ~chunks ~table:(Hashtbl.create 1) ~entry:0 in
      let agrees addrs =
        let fetch = Image.make_fetch img in
        let reference = Test_support.Ref_fetch.make_fetch img in
        List.for_all (fun a -> fetch a = reference a) addrs
      in
      agrees (List.sort compare order) && agrees order)

(* Emission errors; the linker prefixes the section.  A jump the
   layout kept short is out of range only if its label resolves
   elsewhere than the layout placed it. *)
let test_emission_errors () =
  expect_error "odd displacement"
    (Linker.Error "section s: odd jump displacement to t") (fun () ->
      Linker.link ~entry:"e"
        [ section "s" 0x4400
            [ A.label "e"; A.Dbytes "x"; A.jmp "t"; A.Align2; A.label "t" ] ]);
  expect_error "out of range"
    (Assembler.Error "jump to t out of range (599 words)") (fun () ->
      Assembler.emit ~base:0x4400
        ~resolve:(fun _ -> 0x4400 + 1200)
        (Assembler.layout [ A.jmp "t"; A.label "t" ]))

let test_start_end_symbols () =
  let items = [ A.label "e"; A.Dword (A.Num 1); A.Dword (A.Num 2) ] in
  let image =
    Linker.link ~entry:"e" [ section "sec" 0x4400 items ]
  in
  check_int "start" 0x4400 (Image.symbol image "sec__start");
  check_int "end" 0x4404 (Image.symbol image "sec__end")

let test_image_load () =
  let items = [ A.label "e"; A.Dword (A.Num 0xBEEF) ] in
  let image =
    Linker.link ~entry:"e" [ section "sec" 0x4400 items ]
  in
  let m = Amulet_mcu.Machine.create () in
  Image.load image m;
  check_int "datum" 0xBEEF
    (Amulet_mcu.Machine.mem_checked_read m Amulet_mcu.Word.W16 0x4400);
  check_int "reset vector" 0x4400
    (Amulet_mcu.Machine.mem_checked_read m Amulet_mcu.Word.W16 0xFFFE)

(* Lookups by name read the linker's table; they must answer as a scan
   of [Image.symbols] does, on the linked image and on the images
   [with_chunks] and [with_notes] derive from it.  Labels share a long
   prefix, and the probes include names no section defines. *)
let lookup_prefix = "app$a_long_label_prefix_shared_by_every_name_"

let prop_lookups_agree =
  let open QCheck2.Gen in
  let name =
    map (fun s -> lookup_prefix ^ s)
      (string_size ~gen:(oneofl [ 'a'; 'b'; '$' ]) (0 -- 3))
  in
  QCheck2.Test.make ~count:200 ~name:"symbol lookups = scan of symbols"
    ~print:QCheck2.Print.(pair (list (list string)) (list string))
    (pair (list_size (1 -- 4) (list_size (0 -- 6) name))
       (list_size (0 -- 8) name))
    (fun (labels, probes) ->
      let seen = Hashtbl.create 16 in
      let fresh l =
        let f = not (Hashtbl.mem seen l) in
        Hashtbl.replace seen l ();
        f
      in
      let sections =
        List.mapi
          (fun i ls ->
            section
              (lookup_prefix ^ "s" ^ string_of_int i)
              (0x4400 + (i * 0x100))
              (List.concat_map
                 (fun l -> [ A.label l; A.nop ])
                 (List.filter fresh ls)))
          labels
      in
      let img =
        Linker.link ~entry:(lookup_prefix ^ "s0__start") sections
      in
      let agree (i : Image.t) =
        let syms = i.Image.symbols in
        syms = img.Image.symbols
        && List.for_all
             (fun q ->
               (match Image.symbol i q with
               | a -> List.assoc_opt q syms = Some a
               | exception Not_found -> not (List.mem_assoc q syms))
               && Image.has_symbol i q = List.mem_assoc q syms)
             (List.map fst img.Image.symbols @ probes)
      in
      let zeroed =
        Image.with_chunks img
          (List.map
             (fun (b, d) -> (b, Bytes.make (Bytes.length d) '\000'))
             img.Image.chunks)
      in
      let noted i = Image.with_notes i [ ("k", "v") ] in
      agree img && agree zeroed && agree (noted img) && agree (noted zeroed))

(* [Apis.externals] and [Apis.footprint] against the reference scan
   ([Test_support.Ref_externals]) on every pinned build and on every
   campaign cell image of each mode, the binary cells' patched copies
   of the carrier firmware included. *)
let test_externals_agree () =
  let bindings tbl =
    List.sort compare (Hashtbl.fold (fun a n acc -> (a, n) :: acc) tbl [])
  in
  let check what (img : Image.t) =
    let syms = img.Image.symbols in
    Alcotest.(check (list (pair int string)))
      (what ^ ": externals")
      (bindings (Test_support.Ref_externals.externals syms))
      (bindings (Apis.externals syms));
    List.iter
      (fun (name, _) ->
        Alcotest.(check (option int))
          (what ^ ": footprint " ^ name)
          (Test_support.Ref_externals.footprint name)
          (Apis.footprint name))
      syms
  in
  let builds = ref 0 and patched = ref 0 in
  Test_support.Image_builds.iter (fun label mode variant fw ->
      incr builds;
      check
        (String.concat " " [ label; Iso.name mode; variant ])
        fw.Aft.fw_image);
  check_int "every pinned build" 288 !builds;
  Test_support.Image_builds.iter_cells (fun mode (atk : Attacks.t) built ->
      match built with
      | Attacks.Rejected _ -> ()
      | Attacks.Built { fw; _ } ->
        if atk.Attacks.atk_level = Attacks.Binary then incr patched;
        check (atk.Attacks.atk_name ^ " " ^ Iso.name mode) fw.Aft.fw_image);
  check_int "every binary cell"
    (List.length Iso.all
    * List.length
        (List.filter
           (fun (a : Attacks.t) -> a.Attacks.atk_level = Attacks.Binary)
           Attacks.corpus))
    !patched

(* ------------------------------------------------------------------ *)
(* Layout invariants *)

let test_layout_alignment () =
  let lay =
    Layout.compute ~os_code_size:0x123 ~os_data_size:0x10
      ~apps:
        [ ("a", 0x111, 0x23, 0x100); ("b", 0x777, 0x51, 0x200);
          ("c", 0x39, 0x400, 0x80) ]
  in
  check_int "os data 1KiB aligned" 0 (lay.Layout.os_data_base land 0x3FF);
  check_int "apps base aligned" 0 (lay.Layout.apps_base land 0x3FF);
  List.iter
    (fun (a : Layout.app_layout) ->
      check_int (a.Layout.name ^ " data 1KiB aligned") 0
        (a.Layout.data_base land 0x3FF);
      check_int (a.Layout.name ^ " limit aligned") 0
        (a.Layout.data_limit land 0x3FF);
      check_bool (a.Layout.name ^ " code below data") true
        (a.Layout.code_base + a.Layout.code_size <= a.Layout.data_base);
      let stack_top = a.Layout.data_base + a.Layout.stack_bytes in
      check_bool (a.Layout.name ^ " stack below globals") true
        (stack_top <= a.Layout.data_limit - a.Layout.globals_size);
      check_bool (a.Layout.name ^ " stack above base") true
        (stack_top > a.Layout.data_base))
    lay.Layout.apps;
  (* apps are contiguous: code of app n+1 starts at data_limit of n *)
  let rec contiguous = function
    | (a : Layout.app_layout) :: (b : Layout.app_layout) :: rest ->
      check_int "contiguous" a.Layout.data_limit b.Layout.code_base;
      contiguous (b :: rest)
    | _ -> ()
  in
  contiguous lay.Layout.apps

let test_layout_overflow () =
  match
    Layout.compute ~os_code_size:0x1000 ~os_data_size:0x100
      ~apps:[ ("big", 0x8000, 0x8000, 0x8000) ]
  with
  | exception Layout.Does_not_fit _ -> ()
  | _ -> Alcotest.fail "expected does-not-fit"

(* ------------------------------------------------------------------ *)
(* MPU borders: link-time values, patched at the final layout *)

let test_border_cg_sizing () =
  let s = section "s" 0x4400 [ A.mov (A.Simm (A.Border "zero")) (A.Dreg 6); A.label "end" ] in
  let image = Linker.link ~extra_symbols:[ ("zero", 0) ] ~entry:"end" [ s ] in
  (* the border of 0 is 0, which the constant generator could encode;
     the operand still takes its extension word *)
  check_int "end offset" (0x4400 + 4) (Image.symbol image "end");
  match image.Image.chunks with
  | [ (_, data) ] ->
    check_int "emitted = layout size" (Assembler.size s.Linker.layout)
      (Bytes.length data);
    check_int "extension word" 0 (Bytes.get_uint16_le data 2)
  | _ -> Alcotest.fail "expected one chunk"

let test_border_rounds_up () =
  List.iter
    (fun (addr, v) -> check_int (Printf.sprintf "border 0x%04X" addr) v (Mpu.border addr))
    [ (0x5BFF, 0x5C0); (0x5C00, 0x5C0); (0x5C01, 0x600) ]

(* The SEGB1, SEGB2 and SAM immediates of the reconfiguration sequence
   between the [tag]'s markers. *)
let mpu_writes (img : Image.t) tag =
  let stop = Image.symbol img (Amulet_aft.Stubs.mpu_marker tag "e") in
  let rec go addr acc =
    if addr >= stop then acc
    else
      let insn, size = Amulet_mcu.Decode.decode ~fetch:(word_at img) ~addr in
      let acc =
        match insn with
        | O.Fmt1 (O.MOV, _, O.S_immediate v, O.D_absolute r) -> (r, v) :: acc
        | _ -> acc
      in
      go (addr + size) acc
  in
  let w = go (Image.symbol img (Amulet_aft.Stubs.mpu_marker tag "b")) [] in
  List.map
    (fun r -> List.assoc r w)
    [ Mpu.segb1_addr; Mpu.segb2_addr; Mpu.sam_addr ]

(* Every suite app alone under mpu: its trampoline writes its data
   segment's borders, and [__osreturn] and every gate the OS data
   segment's.  Apps with odd-sized globals end their data section one
   byte below [data_limit]. *)
let test_stub_borders () =
  List.iter
    (fun (app : Amulet_apps.Suite.app) ->
      List.iter
        (fun shadow ->
          let mode = Iso.Mpu_assisted in
          let fw = Aft.build ~mode ~shadow [ Amulet_apps.Suite.spec_for mode app ] in
          let img = fw.Aft.fw_image and lay = fw.Aft.fw_layout in
          let a = List.hd lay.Layout.apps in
          let info = if shadow then "rw" else "" in
          let check tag expect =
            Alcotest.(check (list int))
              (Printf.sprintf "%s%s %s" app.name (if shadow then " shadow" else "") tag)
              expect (mpu_writes img tag)
          in
          check ("t_" ^ app.name)
            [
              a.Layout.data_base lsr 4;
              a.Layout.data_limit lsr 4;
              Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:"" ~info ();
            ];
          let os =
            [
              lay.Layout.os_data_base lsr 4;
              lay.Layout.apps_base lsr 4;
              Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:"rw" ~info ();
            ]
          in
          check "osret" os;
          Array.iter
            (fun (svc : Amulet_cc.Apis.service) -> check ("g_" ^ svc.name) os)
            Amulet_cc.Apis.services)
        [ false; true ])
    Amulet_apps.Suite.all

(* ------------------------------------------------------------------ *)
(* AFT end-to-end invariants *)

let tiny_app = "int x; void handle_init(int a) { x = 1; }"

let test_aft_bounds_symbols () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "tiny"; source = tiny_app } ]
  in
  let img = fw.Aft.fw_image in
  let lay = List.hd fw.Aft.fw_layout.Layout.apps in
  check_int "data lo symbol = layout" lay.Layout.data_base
    (Image.symbol img "tiny_data__start");
  check_int "code lo symbol = layout" lay.Layout.code_base
    (Image.symbol img "tiny_code__start");
  check_bool "tramp exists" true (Image.has_symbol img "__tramp_tiny");
  check_bool "exit stub inside app code" true
    (let e = Image.symbol img "__exit_tiny" in
     e >= lay.Layout.code_base && e < lay.Layout.code_base + lay.Layout.code_size)

let test_aft_duplicate_names () =
  match
    Aft.build ~mode:Iso.No_isolation
      [
        { Aft.name = "a"; source = tiny_app };
        { Aft.name = "a"; source = tiny_app };
      ]
  with
  | exception Aft.Build_error _ -> ()
  | _ -> Alcotest.fail "expected duplicate-name error"

let test_aft_bad_name () =
  match Aft.build ~mode:Iso.No_isolation [ { Aft.name = "Bad App"; source = tiny_app } ] with
  | exception Aft.Build_error _ -> ()
  | _ -> Alcotest.fail "expected invalid-name error"

(* [build] is [link (os ...) (List.map compile ...)].  A compiled app or
   an OS value links into any number of firmwares unchanged, so linking
   every group from one compile per app and mode gives what a fresh
   build of each group gives. *)
let test_aft_link_shared_parts () =
  let module Suite = Amulet_apps.Suite in
  let groups =
    [ Suite.platform_apps; Suite.security_apps; List.rev Suite.security_apps ]
  in
  List.iter
    (fun (mode, shadow) ->
      let compiled =
        List.map
          (fun (a : Suite.app) ->
            (a.Suite.name, Aft.compile ~mode ~shadow (Suite.spec_for mode a)))
          (List.concat groups)
      in
      List.iter
        (fun group ->
          let names = List.map (fun (a : Suite.app) -> a.Suite.name) group in
          let linked =
            Aft.link (Aft.os ~mode ~shadow names)
              (List.map (fun n -> List.assoc n compiled) names)
          in
          let built =
            Aft.build ~mode ~shadow (List.map (Suite.spec_for mode) group)
          in
          check_bool
            (Printf.sprintf "%s%s: %s" (Iso.name mode)
               (if shadow then " shadow" else "")
               (String.concat "," names))
            true
            (Test_support.Fw_parts.(of_firmware linked = of_firmware built)))
        groups)
    [
      (Iso.Software_only, false);
      (Iso.Mpu_assisted, false);
      (Iso.Mpu_assisted, true);
    ]

let test_aft_link_rejects_mismatch () =
  let spec name = { Aft.name; source = tiny_app } in
  let mode = Iso.Mpu_assisted in
  let a = Aft.compile ~mode (spec "a") and b = Aft.compile ~mode (spec "b") in
  let os = Aft.os ~mode [ "a"; "b" ] in
  let rejects what apps os =
    match Aft.link os apps with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  rejects "another mode"
    [ a; Aft.compile ~mode:Iso.Software_only (spec "b") ]
    os;
  rejects "another shadow" [ a; Aft.compile ~mode ~shadow:true (spec "b") ] os;
  rejects "shadow OS" [ a; b ] (Aft.os ~mode ~shadow:true [ "a"; "b" ]);
  rejects "another order" [ b; a ] os;
  rejects "a missing app" [ a ] os;
  rejects "another name" [ a; Aft.compile ~mode (spec "c") ] os;
  check_bool "the matching list links" true
    (List.length (Aft.link os [ a; b ]).Aft.fw_apps = 2)

(* names are checked before any app is compiled *)
let test_aft_names_before_compile () =
  match
    Aft.build ~mode:Iso.No_isolation
      [
        { Aft.name = "a"; source = "int x = ;" };
        { Aft.name = "a"; source = tiny_app };
      ]
  with
  | exception Aft.Build_error msg ->
    Alcotest.(check string) "error" "duplicate app names" msg
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected duplicate-name error"

let test_stack_depth_analysis () =
  let src =
    "int leaf(int x) { int a[4]; a[0] = x; return a[0]; }\n\
     int mid(int x) { return leaf(x) + leaf(x + 1); }\n\
     void handle_init(int a) { mid(a); }"
  in
  let cu = Amulet_cc.Driver.compile ~prefix:"t" ~mode:Iso.Software_only src in
  check_bool "not recursive" false cu.Amulet_cc.Driver.recursive;
  (* three frames deep: init -> mid -> leaf, each bounded *)
  check_bool "bounded estimate" true
    (cu.Amulet_cc.Driver.stack_bytes > 24
    && cu.Amulet_cc.Driver.stack_bytes < 400)

let test_stack_depth_recursion_flag () =
  let src =
    "int f(int x) { if (x) return f(x - 1); return 0; }\n\
     void handle_init(int a) { f(a); }"
  in
  let cu = Amulet_cc.Driver.compile ~prefix:"t" ~mode:Iso.Software_only src in
  check_bool "flagged recursive" true cu.Amulet_cc.Driver.recursive;
  check_int "default reservation" Amulet_cc.Driver.default_stack_bytes
    cu.Amulet_cc.Driver.stack_bytes

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "link"
    [
      ( "assembler",
        [
          quick "sizes" test_sizes;
          quick "labels" test_labels;
          quick "duplicate label" test_duplicate_label;
          quick "jump relaxation" test_jump_relaxation;
          quick "symbolic CG sizing" test_symbolic_cg_size_agreement;
          quick "relaxation boundary" test_relaxation_boundary;
          Test_support.Seed.to_alcotest prop_layout_agrees;
        ] );
      ( "linker",
        [
          quick "undefined symbol" test_undefined_symbol;
          quick "duplicate symbol" test_duplicate_symbol_across_sections;
          quick "overlap" test_overlap_detection;
          quick "overlapping chunks" test_overlapping_chunks_rejected;
          Test_support.Seed.to_alcotest prop_fetch_agrees;
          quick "emission errors" test_emission_errors;
          quick "start/end symbols" test_start_end_symbols;
          quick "image load" test_image_load;
          Test_support.Seed.to_alcotest prop_lookups_agree;
          quick "externals = reference scan" test_externals_agree;
        ] );
      ( "layout",
        [
          quick "alignment invariants" test_layout_alignment;
          quick "overflow" test_layout_overflow;
        ] );
      ( "mpu borders",
        [
          quick "border immediate takes an extension word" test_border_cg_sizing;
          quick "border rounds up" test_border_rounds_up;
          quick "stubs write the layout's borders" test_stub_borders;
        ] );
      ( "aft",
        [
          quick "bounds symbols" test_aft_bounds_symbols;
          quick "duplicate names" test_aft_duplicate_names;
          quick "bad name" test_aft_bad_name;
          quick "link = build on shared parts" test_aft_link_shared_parts;
          quick "link rejects mismatched parts" test_aft_link_rejects_mismatch;
          quick "names checked before compiling" test_aft_names_before_compile;
          quick "stack depth" test_stack_depth_analysis;
          quick "recursion flag" test_stack_depth_recursion_flag;
        ] );
    ]
