(* Translation validation: per-opcode abstraction lemmas, checked by
   differential execution.

   The abstract machine collapses an instruction to its *memory
   footprint* — which addresses it loads, which it stores, where
   control goes next.  That collapse is only sound if the footprint
   predicted from the opcode's addressing shape matches what the
   concrete decoder/executor pipeline actually does on the bus.  For
   every opcode in [lib/mcu/decode.ml]/[cpu.ml] this module states the
   footprint as a function of the pre-instruction register file
   (the lemma), executes one instruction on a real [Machine]
   ([run ~fuel:1]), and compares the observed [Trace] events and next
   PC against the prediction.

   Scope (stated, not hidden): data values and arithmetic flags are
   not abstracted — the isolation argument never depends on *what* is
   written, only *where*.  Conditional-jump direction is predicted
   from the pre-state status register, and branch targets through
   memory are predicted by peeking the pre-state, so the lemmas pin
   down the full control-flow surface the proof relies on. *)

module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module T = Amulet_mcu.Trace
module Encode = Amulet_mcu.Encode

let code_base = 0x4400
let scratch = [ 0x9000; 0x9010; 0x9020; 0x9030; 0x9040; 0x9050; 0x9060 ]

(* ------------------------------------------------------------------ *)
(* Predicted footprint                                                 *)

type footprint = {
  fp_loads : (int * W.width) list;
  fp_stores : (int * W.width) list;
  fp_next_pc : int;
}

exception Unsupported of string

(* Mirror of [Cpu.cond_true], restated independently: the lemma must
   not be checked against itself. *)
let cond_true regs = function
  | O.JNE -> not (R.zero regs)
  | O.JEQ -> R.zero regs
  | O.JNC -> not (R.carry regs)
  | O.JC -> R.carry regs
  | O.JN -> R.negative regs
  | O.JGE -> R.negative regs = R.overflow regs
  | O.JL -> R.negative regs <> R.overflow regs
  | O.JMP -> true

(* Address denoted by an operand, given the pre-instruction register
   file.  [ext_addr] is where this operand's extension word lives
   (PC-relative indexed mode resolves against it).  [None] when the
   operand touches no memory. *)
let src_addr regs ~ext_addr = function
  | O.S_reg _ | O.S_immediate _ -> None
  | O.S_indexed (r, x) ->
    let base = if r = R.pc then ext_addr else R.get regs r in
    Some ((base + x) land 0xFFFF)
  | O.S_absolute a -> Some a
  | O.S_indirect r | O.S_indirect_inc r -> Some (R.get regs r)

let dst_addr regs ~ext_addr = function
  | O.D_reg _ -> None
  | O.D_indexed (r, x) ->
    let base = if r = R.pc then ext_addr else R.get regs r in
    Some ((base + x) land 0xFFFF)
  | O.D_absolute a -> Some a

(* Value an operand denotes in the pre-state (for branch targets). *)
let peek m regs ~ext_addr src =
  match src with
  | O.S_reg r -> R.get regs r
  | O.S_immediate n -> W.norm W.W16 n
  | _ -> (
    match src_addr regs ~ext_addr src with
    | Some a -> M.mem_checked_read m W.W16 a
    | None -> assert false)

let predict m (i : O.t) ~pc0 =
  let regs = M.regs m in
  let len = Encode.length_bytes i in
  let fall = pc0 + len in
  match i with
  | O.Fmt1 (op, w, src, dst) ->
    let src_ext = pc0 + 2 in
    let dst_ext = pc0 + 2 + (if Encode.src_needs_ext w src then 2 else 0) in
    let sload =
      match src_addr regs ~ext_addr:src_ext src with
      | Some a -> [ (a, w) ]
      | None -> []
    in
    let daddr = dst_addr regs ~ext_addr:dst_ext dst in
    let dload =
      (* every op but MOV reads the destination before writing it *)
      match daddr with
      | Some a when op <> O.MOV -> [ (a, w) ]
      | _ -> []
    in
    let dstore =
      match daddr with
      | Some a when O.writes_back op -> [ (a, w) ]
      | _ -> []
    in
    let next_pc =
      match dst with
      | O.D_reg 0 when op = O.MOV ->
        (* MOV →PC is the branch idiom (BR / RET) *)
        W.norm W.W16 (peek m regs ~ext_addr:src_ext src)
      | O.D_reg 0 -> raise (Unsupported "arithmetic on PC")
      | _ -> fall
    in
    { fp_loads = sload @ dload; fp_stores = dstore; fp_next_pc = next_pc }
  | O.Fmt2 (op, w, src) -> (
    let ext = pc0 + 2 in
    let saddr = src_addr regs ~ext_addr:ext src in
    let sload = match saddr with Some a -> [ (a, w) ] | None -> [] in
    let sp' = R.get_sp regs - 2 in
    match op with
    | O.RRC | O.RRA | O.SWPB | O.SXT ->
      (* read-modify-write in place *)
      {
        fp_loads = sload;
        fp_stores = (match saddr with Some a -> [ (a, w) ] | None -> []);
        fp_next_pc = fall;
      }
    | O.PUSH ->
      { fp_loads = sload; fp_stores = [ (sp', w) ]; fp_next_pc = fall }
    | O.CALL ->
      {
        fp_loads = sload;
        fp_stores = [ (sp', W.W16) ];
        fp_next_pc = W.norm W.W16 (peek m regs ~ext_addr:ext src);
      })
  | O.Jump (c, off) ->
    {
      fp_loads = [];
      fp_stores = [];
      fp_next_pc = (if cond_true regs c then pc0 + 2 + (2 * off) else fall);
    }
  | O.Reti ->
    let sp = R.get_sp regs in
    {
      fp_loads = [ (sp, W.W16); (sp + 2, W.W16) ];
      fp_stores = [];
      fp_next_pc = M.mem_checked_read m W.W16 (sp + 2);
    }

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)

type failure = { f_case : string; f_reason : string }
type outcome = { lv_cases : int; lv_failures : failure list }

let width_name = function W.W8 -> "b" | W.W16 -> "w"

let pp_accs accs =
  String.concat ","
    (List.map (fun (a, w) -> Printf.sprintf "%04X.%s" a (width_name w)) accs)

let sort_accs = List.sort compare

(* One machine per case: seeded registers pointing into FRAM scratch,
   SP in SRAM, MPU disabled (lemmas are about the CPU core; MPU
   semantics are proved at the abstract level and replayed by
   [Replay]). *)
let setup ~flags =
  let m = M.create () in
  let regs = M.regs m in
  List.iteri
    (fun idx a ->
      M.mem_checked_write m W.W16 a (0x9500 + (idx * 2));
      R.set regs (4 + idx) a)
    scratch;
  R.set regs 9 0x1234 (* plain data register *);
  R.set regs 12 0x0042;
  R.set_sp regs 0x2000;
  M.mem_checked_write m W.W16 0x2000 0x4600 (* return address for RET/RETI *);
  M.mem_checked_write m W.W16 0x2002 0x4602;
  M.mem_checked_write m W.W16 0x9100 0x4610 (* branch target via memory *);
  M.mem_checked_write m W.W16 0x9200 0x5678;
  R.set_carry regs flags;
  R.set_zero regs flags;
  R.set_negative regs flags;
  R.set_overflow regs flags;
  R.set_pc regs code_base;
  m

let run_case ?(flags = false) (i : O.t) : failure option =
  let name =
    Printf.sprintf "%s%s" (O.to_string i)
      (if flags then " [flags set]" else " [flags clear]")
  in
  match Encode.encode i with
  | exception Invalid_argument msg -> Some { f_case = name; f_reason = msg }
  | words -> (
    let m = setup ~flags in
    M.load_words m ~addr:code_base words;
    match predict m i ~pc0:code_base with
    | exception Unsupported msg -> Some { f_case = name; f_reason = msg }
    | fp -> (
      let loads = ref [] and stores = ref [] in
      M.add_watch m (function
        | T.Mem_read { addr; width; _ } -> loads := (addr, width) :: !loads
        | T.Mem_write { addr; width; _ } -> stores := (addr, width) :: !stores
        | _ -> ());
      match M.run ~fuel:1 m with
      | M.Faulted f ->
        Some { f_case = name; f_reason = Format.asprintf "%a" M.pp_fault f }
      | M.Out_of_fuel | M.Halted | M.Sw_fault _ ->
        let fail reason = Some { f_case = name; f_reason = reason } in
        if sort_accs !loads <> sort_accs fp.fp_loads then
          fail
            (Printf.sprintf "loads: predicted {%s} observed {%s}"
               (pp_accs (sort_accs fp.fp_loads))
               (pp_accs (sort_accs !loads)))
        else if sort_accs !stores <> sort_accs fp.fp_stores then
          fail
            (Printf.sprintf "stores: predicted {%s} observed {%s}"
               (pp_accs (sort_accs fp.fp_stores))
               (pp_accs (sort_accs !stores)))
        else if R.get_pc (M.regs m) <> fp.fp_next_pc then
          fail
            (Printf.sprintf "next pc: predicted %04X observed %04X (%s)"
               fp.fp_next_pc
               (R.get_pc (M.regs m))
               (O.to_string i))
        else None))

(* ------------------------------------------------------------------ *)
(* The corpus: every opcode × every addressing shape                   *)

let all_op2 =
  [
    O.MOV; O.ADD; O.ADDC; O.SUBC; O.SUB; O.CMP; O.DADD; O.BIT; O.BIC; O.BIS;
    O.XOR; O.AND;
  ]

let srcs =
  [
    O.S_reg 9;
    O.S_indexed (4, 6);
    O.S_indexed (5, -2);
    O.S_absolute 0x9100;
    O.S_indirect 6;
    O.S_indirect_inc 7;
    O.S_immediate 0x77;
    O.S_immediate 1 (* constant generator *);
    O.S_immediate 8 (* constant generator *);
  ]

let dsts = [ O.D_reg 11; O.D_indexed (8, 4); O.D_absolute 0x9200 ]

let mem_srcs =
  List.filter (function O.S_immediate _ -> false | _ -> true) srcs

let cases () =
  let fmt1 =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun w ->
            List.concat_map
              (fun s -> List.map (fun d -> O.Fmt1 (op, w, s, d)) dsts)
              srcs)
          [ W.W16; W.W8 ])
      all_op2
  in
  let branches =
    (* MOV →PC: BR #imm, BR Rn, BR &abs, and RET (MOV @SP+, PC) *)
    [
      O.Fmt1 (O.MOV, W.W16, O.S_immediate 0x4800, O.D_reg 0);
      O.Fmt1 (O.MOV, W.W16, O.S_reg 8, O.D_reg 0);
      O.Fmt1 (O.MOV, W.W16, O.S_absolute 0x9100, O.D_reg 0);
      O.Fmt1 (O.MOV, W.W16, O.S_indirect_inc 1, O.D_reg 0);
    ]
  in
  let fmt2 =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun w -> [ O.Fmt2 (O.RRC, w, s); O.Fmt2 (O.RRA, w, s) ])
          [ W.W16; W.W8 ]
        @ [ O.Fmt2 (O.SWPB, W.W16, s); O.Fmt2 (O.SXT, W.W16, s) ])
      mem_srcs
    @ List.concat_map
        (fun s ->
          List.map (fun w -> O.Fmt2 (O.PUSH, w, s)) [ W.W16; W.W8 ])
        srcs
    @ List.map
        (fun s -> O.Fmt2 (O.CALL, W.W16, s))
        [ O.S_reg 8; O.S_immediate 0x4800; O.S_absolute 0x9100; O.S_indirect 6 ]
  in
  let jumps =
    List.concat_map
      (fun c -> [ O.Jump (c, 5); O.Jump (c, -3) ])
      [ O.JNE; O.JEQ; O.JNC; O.JC; O.JN; O.JGE; O.JL; O.JMP ]
  in
  (fmt1 @ branches @ fmt2 @ [ O.Reti ], jumps)

let validate () =
  let plain, jumps = cases () in
  let failures =
    List.filter_map run_case plain
    @ List.filter_map (run_case ~flags:false) jumps
    @ List.filter_map (run_case ~flags:true) jumps
  in
  {
    lv_cases = List.length plain + (2 * List.length jumps);
    lv_failures = failures;
  }
