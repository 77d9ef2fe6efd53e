(* Differential testing: random WearC programs are evaluated by an
   OCaml reference interpreter and executed by the compiled code on
   the simulated MCU, under every isolation mode.  Any divergence is a
   compiler, ISA or simulator bug.

   The generated programs are pointer-free straight-line code over int
   globals (so all four modes accept them and short-circuit evaluation
   has no observable side effects), but they exercise the whole
   arithmetic surface: wrapping add/sub/mul, signed division and
   modulo, shifts by constant and by variable, bitwise operators,
   comparisons, ternaries and logical connectives. *)

module H = Test_support.Harness
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module An = Amulet_analysis

(* ------------------------------------------------------------------ *)
(* Expression language shared by generator, printer and evaluator *)

type expr =
  | Const of int
  | Global of int  (* g0..g3 *)
  | Bin of string * expr * expr
  | Un of string * expr
  | Ternary of expr * expr * expr

(* 16-bit reference semantics *)
let wrap v = v land 0xFFFF
let signed v = if v land 0x8000 <> 0 then v - 0x10000 else v
let bool01 b = if b then 1 else 0

let rec eval env = function
  | Const n -> wrap n
  | Global i -> wrap env.(i)
  | Un ("-", a) -> wrap (-eval env a)
  | Un ("~", a) -> wrap (lnot (eval env a))
  | Un ("!", a) -> bool01 (eval env a = 0)
  | Un (op, _) -> failwith ("bad unop " ^ op)
  | Ternary (c, a, b) -> if eval env c <> 0 then eval env a else eval env b
  | Bin (op, a, b) -> (
    let va = eval env a and vb = eval env b in
    let sa = signed va and sb = signed vb in
    match op with
    | "+" -> wrap (va + vb)
    | "-" -> wrap (va - vb)
    | "*" -> wrap (va * vb)
    | "/" -> if sb = 0 then 0 (* avoided by construction *) else wrap (sa / sb)
    | "%" -> if sb = 0 then 0 else wrap (sa mod sb)
    | "&" -> va land vb
    | "|" -> va lor vb
    | "^" -> va lxor vb
    | "<<" -> wrap (va lsl (vb land 15))
    | ">>" -> wrap (sa asr (vb land 15))
    | "<" -> bool01 (sa < sb)
    | ">" -> bool01 (sa > sb)
    | "<=" -> bool01 (sa <= sb)
    | ">=" -> bool01 (sa >= sb)
    | "==" -> bool01 (va = vb)
    | "!=" -> bool01 (va <> vb)
    | "&&" -> bool01 (va <> 0 && vb <> 0)
    | "||" -> bool01 (va <> 0 || vb <> 0)
    | _ -> failwith ("bad binop " ^ op))

let rec print = function
  | Const n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Global i -> Printf.sprintf "g%d" i
  | Un (op, a) -> Printf.sprintf "(%s%s)" op (print a)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (print a) op (print b)
  | Ternary (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (print c) (print a) (print b)

(* ------------------------------------------------------------------ *)
(* Generator *)

let gen_expr : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* cap the size: subtree fan-out of 3 per level is exponential, and
     the firmware must fit in 64 KiB under the check-heaviest mode *)
  sized @@ fun n ->
  (fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun v -> Const v) (int_range 0 0xFFFF);
            map (fun v -> Const v) (int_range (-200) 200);
            map (fun i -> Global i) (int_range 0 3);
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        (* division/modulo get a non-zero constant divisor so the
           reference never sees a trap the hardware helper turns into
           garbage *)
        let divisor =
          oneof [ int_range 1 400; int_range (-400) (-1) ]
          |> map (fun v -> Const v)
        in
        oneof
          [
            leaf;
            map2 (fun a b -> Bin ("+", a, b)) sub sub;
            map2 (fun a b -> Bin ("-", a, b)) sub sub;
            map2 (fun a b -> Bin ("*", a, b)) sub sub;
            map2 (fun a d -> Bin ("/", a, d)) sub divisor;
            map2 (fun a d -> Bin ("%", a, d)) sub divisor;
            map2 (fun a b -> Bin ("&", a, b)) sub sub;
            map2 (fun a b -> Bin ("|", a, b)) sub sub;
            map2 (fun a b -> Bin ("^", a, b)) sub sub;
            map2 (fun a k -> Bin ("<<", a, Const k)) sub (int_range 0 15);
            map2 (fun a k -> Bin (">>", a, Const k)) sub (int_range 0 15);
            map2 (fun a b -> Bin ("<<", a, Bin ("&", b, Const 7))) sub sub;
            (let cmp = oneofl [ "<"; ">"; "<="; ">="; "=="; "!=" ] in
             map3 (fun op a b -> Bin (op, a, b)) cmp sub sub);
            (let con = oneofl [ "&&"; "||" ] in
             map3 (fun op a b -> Bin (op, a, b)) con sub sub);
            map (fun a -> Un ("-", a)) sub;
            map (fun a -> Un ("~", a)) sub;
            map (fun a -> Un ("!", a)) sub;
            map3 (fun c a b -> Ternary (c, a, b)) sub sub sub;
          ]))
    (min n 20)

type program = { inits : int array; stmts : (int * expr) list; result : expr }

let gen_program : program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* inits = array_size (return 4) (int_range 0 0xFFFF) in
  let* stmts =
    list_size (int_range 0 5)
      (pair (int_range 0 3) (gen_expr |> map (fun e -> e)))
  in
  let* result = gen_expr in
  return { inits; stmts; result }

let to_source p =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i v -> Buffer.add_string buf (Printf.sprintf "int g%d = %d;\n" i v))
    p.inits;
  Buffer.add_string buf "int main() {\n";
  List.iter
    (fun (i, e) -> Buffer.add_string buf (Printf.sprintf "  g%d = %s;\n" i (print e)))
    p.stmts;
  Buffer.add_string buf (Printf.sprintf "  return %s;\n}\n" (print p.result));
  Buffer.contents buf

let reference_result p =
  let env = Array.map wrap p.inits in
  List.iter (fun (i, e) -> env.(i) <- eval env e) p.stmts;
  eval env p.result

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Wrap a property so a failing case prints the reproducing seed and
   the generated case ([show]) to stderr — alcotest swallows qcheck's
   own counterexample output unless run verbose. *)
let report ~show name prop p =
  let dump ~reason =
    Printf.eprintf
      "\n\
       [test_diff] %s: %s\n\
       [test_diff] reproduce with: QCHECK_SEED=%d dune exec \
       test/test_diff.exe\n\
       [test_diff] generated case:\n\
       %s%!"
      name reason Test_support.Seed.master_seed (show p)
  in
  match prop p with
  | true -> true
  | false ->
    dump ~reason:"property is false";
    false
  | exception e ->
    dump ~reason:("raised " ^ Printexc.to_string e);
    raise e

let reporting name = report ~show:to_source name

let run_mode mode src =
  let r = H.run ~mode src in
  match r.H.stop with
  | M.Halted -> H.return_value r
  | other ->
    failwith (Format.asprintf "did not halt: %a" M.pp_stop_reason other)

let diff_property mode =
  QCheck2.Test.make ~count:120
    ~name:("compiled = reference (" ^ Iso.name mode ^ ")")
    ~print:(fun p ->
      Printf.sprintf "%s\n(* reference: %d *)" (to_source p)
        (reference_result p))
    gen_program
    (reporting
       ("compiled = reference (" ^ Iso.name mode ^ ")")
       (fun p ->
         let src = to_source p in
         let got = run_mode mode src and want = reference_result p in
         if got <> want then
           Printf.eprintf "[test_diff] compiled %d, reference %d\n%!" got want;
         got = want))

(* Every random program's binary must also pass both independent
   static checkers — the SFI verifier and the CFI reconstruction.  The
   emitter, the verifier and the CFI pass share no code, so a program
   the simulator runs correctly but a checker rejects means one of the
   three disagrees about the policy. *)
let static_certification mode =
  QCheck2.Test.make ~count:60
    ~name:("SFI and CFI accept (" ^ Iso.name mode ^ ")")
    ~print:to_source gen_program
    (reporting
       ("SFI and CFI accept (" ^ Iso.name mode ^ ")")
       (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         let sfi_ok =
           match An.Verifier.verify_app ~image ~mode ~prefix:"prog" with
           | Ok _ -> true
           | Error _ -> false
         in
         let cfi_ok =
           match An.Cfi.reconstruct ~image ~mode ~prefix:"prog" with
           | Ok _ -> true
           | Error _ -> false
         in
         sfi_ok && cfi_ok))

(* All modes agree with each other on the same program (a weaker but
   broader check run on fewer cases). *)
let mode_agreement =
  QCheck2.Test.make ~count:40 ~name:"all isolation modes agree"
    ~print:to_source gen_program
    (reporting "all isolation modes agree" (fun p ->
         let src = to_source p in
         let reference = run_mode Iso.No_isolation src in
         List.for_all (fun mode -> run_mode mode src = reference) Iso.all))

(* ------------------------------------------------------------------ *)
(* Differential lockstep: [Machine.run] against [Refstep], the
   fetch/decode specification in test/support.

   The same linked image is loaded into two machines.  The first is
   driven by [run ~fuel:1], which dispatches from the predecoded block
   cache and runs each uop's specialised executor over the machine's
   bus; the second by [Refstep.run ~fuel:1], which fetches and decodes
   every instruction afresh and runs [Cpu]'s executors over [Ref_bus],
   the data path through [Memory.read] and [Memory.write].  Stop
   reason, register file, cycle counter, retired-instruction count,
   access statistics, console and all 64 KiB of memory must be
   identical at every instruction boundary. *)

module Mem = Amulet_mcu.Memory
module Regs = Amulet_mcu.Registers
module Cpu = Amulet_mcu.Cpu
module Trace = Amulet_mcu.Trace
module Refstep = Test_support.Refstep
module Ref_bus = Test_support.Ref_bus

let boot image =
  let m = M.create () in
  Amulet_link.Image.load image m;
  M.reset m;
  m

let show_stop r = Format.asprintf "%a" M.pp_stop_reason r

let compare_machines ~at a b =
  let same what f =
    if f a <> f b then
      Printf.ksprintf failwith "%s: %s %#x vs %#x" at what (f a) (f b)
  in
  for i = 0 to 15 do
    same (Printf.sprintf "r%d" i) (fun m -> Regs.get (M.regs m) i)
  done;
  same "cycles" M.cycles;
  same "retired" (fun m -> m.M.cpu.Cpu.insns);
  same "fetch_words" (fun m -> m.M.stats.Trace.fetch_words);
  same "data_reads" (fun m -> m.M.stats.Trace.data_reads);
  same "data_writes" (fun m -> m.M.stats.Trace.data_writes);
  if M.console_contents a <> M.console_contents b then
    failwith (at ^ ": console diverged");
  if not (Mem.equal a.M.mem b.M.mem) then failwith (at ^ ": memory diverged")

let lockstep_run ?(max_insns = 200_000) image =
  let a = boot image and b = boot image in
  compare_machines ~at:"boot" a b;
  let rec go insn =
    let ra = M.run ~fuel:1 a in
    let rb = Refstep.run ~fuel:1 b in
    if ra <> rb then
      Printf.ksprintf failwith "insn %d: stop run=%s ref=%s" insn
        (show_stop ra) (show_stop rb);
    compare_machines ~at:(Printf.sprintf "insn %d" insn) a b;
    match ra with
    | M.Out_of_fuel ->
      if insn >= max_insns then
        failwith "lockstep: program did not terminate"
      else go (insn + 1)
    | M.Halted | M.Faulted _ | M.Sw_fault _ -> ra
  in
  go 0

let lockstep_property mode =
  QCheck2.Test.make ~count:40
    ~name:("predecode lockstep (" ^ Iso.name mode ^ ")")
    ~print:to_source gen_program
    (reporting
       ("predecode lockstep (" ^ Iso.name mode ^ ")")
       (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         match lockstep_run image with
         | M.Halted -> true
         | r -> failwith ("lockstep stopped with " ^ show_stop r)))

(* The same programs in one [Machine.run] each, unobserved, so every
   block that validates runs in the lean runner, against [Refstep] at
   the same fuel: the stepwise lockstep above runs [~fuel:1], which
   sends every block of more than one uop to the careful loop. *)
let whole_run_property mode =
  let name = "whole-program lockstep (" ^ Iso.name mode ^ ")" in
  QCheck2.Test.make ~count:40 ~name ~print:to_source gen_program
    (reporting name (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         let a = boot image and b = boot image in
         let fuel = 200_000 in
         let ra = M.run ~fuel a and rb = Refstep.run ~fuel b in
         if ra <> rb then
           Printf.ksprintf failwith "stop run=%s ref=%s" (show_stop ra)
             (show_stop rb);
         compare_machines ~at:"stop" a b;
         ra = M.Halted))

(* Directed lockstep for the paths random WearC never takes: fetches
   from MMIO and unmapped space, an illegal word, and step hooks that
   patch the running block or move PC in the middle of it.  Here
   [Machine.run] goes to its stop in one call, so hooks fire mid-block;
   [Refstep] takes one instruction at a time.  A recording hook and
   watcher log every boundary (pc, cycles, fetch words) and every
   event on both machines; the logs must be equal. *)

module Opcode = Amulet_mcu.Opcode
module Encode = Amulet_mcu.Encode
module Word = Amulet_mcu.Word
module Mpu = Amulet_mcu.Mpu

type entry = Boundary of int * int * int | Event of Trace.event

let code_base = 0x4400

let words_of = List.concat_map Encode.encode
let mov_imm n r = Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_immediate n, r)
let halt = mov_imm 1 (Opcode.D_absolute M.halt_port)

(* [prog] (raw words at [code_base]) on both engines, each with [arm]
   applied first; returns the interpreter's machine and log. *)
let directed ?(arm = ignore) prog ~expect =
  let mk () =
    let m = M.create () in
    M.load_words m ~addr:code_base prog;
    M.set_reset_vector m code_base;
    M.reset m;
    arm m;
    let log = ref [] in
    M.add_step_hook m (fun m ->
        log :=
          Boundary
            (Regs.get_pc (M.regs m), M.cycles m, m.M.stats.Trace.fetch_words)
          :: !log);
    M.add_watch m (fun e -> log := Event e :: !log);
    (m, log)
  in
  let (a, la), (b, lb) = (mk (), mk ()) in
  let ra = M.run ~fuel:1000 a and rb = Refstep.run ~fuel:1000 b in
  Alcotest.(check string) "stop reason" (show_stop rb) (show_stop ra);
  Alcotest.(check string) "expected stop" expect (show_stop ra);
  compare_machines ~at:"stop" a b;
  if !la <> !lb then Alcotest.fail "boundary and event logs diverged";
  (a, List.rev !la)

let boundaries log =
  List.length (List.filter (function Boundary _ -> true | Event _ -> false) log)

let reg m r = Regs.get (M.regs m) r

let test_mmio_fetch () =
  (* MPUCTL0 reads 0x96xx, which decodes as CMP R6, PC; MPUCTL1 reads 0,
     which is no instruction. *)
  let _, log =
    directed
      (words_of [ mov_imm Mpu.ctl0_addr (Opcode.D_reg Regs.pc) ])
      ~expect:"fault (illegal instruction 0000 at pc=05A2)"
  in
  Alcotest.(check bool) "executed from MMIO" true
    (List.exists
       (function Event (Trace.Exec { pc; _ }) -> pc = Mpu.ctl0_addr | _ -> false)
       log)

let test_unmapped_fetch () =
  ignore
    (directed
       (words_of [ mov_imm 0x3000 (Opcode.D_reg Regs.pc) ])
       ~expect:"fault (unmapped read of 3000 at pc=3000)")

let test_illegal_word () =
  (* RRC R3: a read-modify-write of the constant generator *)
  ignore
    (directed
       (words_of [ mov_imm 1 (Opcode.D_reg 5) ] @ [ 0x1003 ] @ words_of [ halt ])
       ~expect:"fault (illegal instruction 1003 at pc=4402)")

(* Four two-word MOVs and a halt, one block: MOV #imm at code_base +
   4k carries its immediate at code_base + 4k + 2. *)
let four_movs =
  words_of
    [
      mov_imm 0x1111 (Opcode.D_reg 5);
      mov_imm 0x2222 (Opcode.D_reg 6);
      mov_imm 0x3333 (Opcode.D_reg 7);
      mov_imm 0x4444 (Opcode.D_reg 8);
      halt;
    ]

(* A hook that runs [f] with its 1-based boundary count. *)
let counting f m =
  let n = ref 0 in
  M.add_step_hook m (fun m ->
      incr n;
      f !n m)

let flip m addr =
  M.mem_checked_write m Word.W8 addr (M.mem_checked_read m Word.W8 addr lxor 1)

let test_hook_patches_block () =
  (* Before the second MOV, flip the third's immediate (later in the
     running block); before the fourth, flip its own immediate. *)
  let arm =
    counting (fun n m ->
        if n = 2 then flip m (code_base + 10)
        else if n = 4 then flip m (code_base + 14))
  in
  let m, log = directed ~arm four_movs ~expect:"halted" in
  Alcotest.(check int) "patched ahead" 0x3332 (reg m 7);
  Alcotest.(check int) "patched imminent" 0x4445 (reg m 8);
  Alcotest.(check int) "one hook call per instruction" m.M.cpu.Cpu.insns
    (boundaries log)

(* An executed store into the running block, on a page written since
   boot and watched since predecode: the store must go through
   [Memory.write], so the block exits and the patched immediate is
   decoded before it runs. *)
let test_store_patches_block () =
  let m, _ =
    directed
      (words_of
         [
           (* code_base + 0: patches the immediate at code_base + 12 *)
           Opcode.Fmt1
             ( Opcode.MOV,
               Word.W16,
               Opcode.S_immediate 0x3333,
               Opcode.D_absolute (code_base + 12) );
           (* + 6 *) mov_imm 0x1111 (Opcode.D_reg 5);
           (* + 10 *) mov_imm 0x2222 (Opcode.D_reg 6);
           halt;
         ])
      ~expect:"halted"
  in
  Alcotest.(check int) "patched immediate executed" 0x3333 (reg m 6)

let test_hook_moves_pc () =
  (* Before the second MOV, skip it. *)
  let arm =
    counting (fun n m -> if n = 2 then Regs.set_pc (M.regs m) (code_base + 8))
  in
  let m, log = directed ~arm four_movs ~expect:"halted" in
  Alcotest.(check int) "skipped" 0 (reg m 6);
  Alcotest.(check int) "resumed" 0x3333 (reg m 7);
  Alcotest.(check int) "one hook call per instruction" m.M.cpu.Cpu.insns
    (boundaries log)

(* Every instruction form in lockstep.  WearC emits only some forms, so
   single random instructions cover the rest: all twelve Format I ops
   in both widths over the six source and three destination modes, the
   Format II ops, the eight jumps and RETI.  Registers, SR and the
   bytes around each operand address are random; operands aim at SRAM,
   at FRAM the MPU lets the instruction read but not write or not
   touch at all, at InfoMem, at MMIO (the MPU's password-checked
   registers and the debug ports included) and at unmapped space, so
   data faults are compared too.  The machine under test runs the
   instruction on a warm block: once to build it, then again after a
   restore, which keeps the block.  The reference steps it once. *)

type icase = {
  i_instr : Opcode.t;
  i_regs : int array;  (* R1..R15; PC is the code base *)
  i_mpu : bool;
  i_fill : int;  (* seeds the bytes around every target *)
}

let show_icase c =
  Printf.sprintf "%s\nregs R1..R15 = [%s]\nmpu %b, fill seed %d\n"
    (Opcode.to_string c.i_instr)
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%04X") c.i_regs)))
    c.i_mpu c.i_fill

(* Segment 1 (code and read-only data) below 0x5000, segment 2 (read
   and write) to 0x6000, segment 3 (no access) above; InfoMem is read
   only. *)
let mpu_b1 = 0x5000
let mpu_b2 = 0x6000

let ram_targets =
  [ 0x1C40; 0x23F0; 0x1880; 0x4480; 0x5100; 0x6100; 0xFF90; 0x1100 ]

let targets =
  ram_targets
  @ [
      Mpu.ctl0_addr; Mpu.segb1_addr; Mpu.sam_addr;
      Amulet_mcu.Timer.counter_addr; M.console_port; M.halt_port;
      M.sw_fault_port; M.host_call_port; 0x0200; 0x3000; 0x1A80;
    ]

let gen_icase =
  let open QCheck2.Gen in
  let target =
    map2 (fun a d -> (a + d) land 0xFFFF) (oneofl targets) (int_range (-4) 4)
  in
  let addr = frequency [ (4, target); (1, int_range 0 0xFFFF) ] in
  let word = int_range 0 0xFFFF in
  let offset = frequency [ (3, int_range (-8) 8); (1, word) ] in
  let imm = oneof [ oneofl [ 0; 1; 2; 4; 8; 0xFFFF ]; word ] in
  let reg = oneofl [ 1; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] in
  let pc_or_reg = oneof [ return Regs.pc; reg ] in
  let src w =
    oneof
      [
        map (fun r -> Opcode.S_reg r) (oneofl [ 0; 1; 2; 4; 5; 6; 12; 15 ]);
        map2 (fun r x -> Opcode.S_indexed (r, x)) pc_or_reg offset;
        map (fun a -> Opcode.S_absolute a) addr;
        map (fun r -> Opcode.S_indirect r) pc_or_reg;
        map (fun r -> Opcode.S_indirect_inc r) reg;
        map (fun n -> Opcode.S_immediate (n land Word.mask w)) imm;
      ]
  in
  let dst =
    oneof
      [
        map (fun r -> Opcode.D_reg r) (int_range 0 15);
        map2 (fun r x -> Opcode.D_indexed (r, x)) pc_or_reg offset;
        map (fun a -> Opcode.D_absolute a) addr;
      ]
  in
  let width = oneofl [ Word.W8; Word.W16 ] in
  let fmt1 =
    let* op =
      oneofl
        Opcode.[ MOV; ADD; ADDC; SUBC; SUB; CMP; DADD; BIT; BIC; BIS; XOR; AND ]
    in
    let* w = width in
    let* s = src w in
    let+ d = dst in
    Opcode.Fmt1 (op, w, s, d)
  in
  let fmt2 =
    let* op = oneofl Opcode.[ RRC; SWPB; RRA; SXT; PUSH; CALL ] in
    let* w =
      match op with
      | Opcode.RRC | Opcode.RRA | Opcode.PUSH -> width
      | _ -> return Word.W16
    in
    let+ s = src w in
    match (op, s) with
    | (Opcode.RRC | Opcode.RRA | Opcode.SWPB | Opcode.SXT), Opcode.S_immediate _
      ->
      Opcode.Fmt2 (op, w, Opcode.S_indirect_inc 1)
    | _ -> Opcode.Fmt2 (op, w, s)
  in
  let jump =
    let* c = oneofl Opcode.[ JNE; JEQ; JNC; JC; JN; JGE; JL; JMP ] in
    let+ off = int_range (-512) 511 in
    Opcode.Jump (c, off)
  in
  let* i_instr =
    frequency [ (14, fmt1); (4, fmt2); (2, jump); (1, return Opcode.Reti) ]
  in
  let* sr = word in
  let* rs = array_size (return 15) (frequency [ (3, addr); (1, word) ]) in
  let i_regs = Array.mapi (fun i v -> if i + 1 = Regs.sr then sr else v) rs in
  let+ i_mpu = bool and+ i_fill = int in
  { i_instr; i_regs; i_mpu; i_fill }

let icase_machine c =
  let m = M.create () in
  M.load_words m ~addr:code_base (words_of [ c.i_instr; halt ]);
  M.set_reset_vector m code_base;
  M.reset m;
  let rand = Random.State.make [| c.i_fill |] in
  List.iter
    (fun a ->
      for b = a - 8 to a + 7 do
        M.mem_checked_write m Word.W8 b (Random.State.int rand 256)
      done)
    (code_base + 0x20 :: ram_targets);
  Array.iteri (fun i v -> Regs.set (M.regs m) (i + 1) v) c.i_regs;
  if c.i_mpu then
    Mpu.configure m.M.mpu ~b1:mpu_b1 ~b2:mpu_b2
      ~sam:(Mpu.sam_bits ~seg1:"rx" ~seg2:"rw" ~seg3:"" ~info:"r" ())
      ~enable:true;
  m

(* The bus against [Ref_bus] at every address: a byte read, a word read
   and a fetch at each of the 65 536, over random bytes, with the MPU
   disabled and under two configurations that between them deny every
   access somewhere.  Value or fault, access statistics, watcher events
   and the MPU's violation flags must agree. *)
let bus_configs =
  [
    None;
    Some (Mpu.sam_bits ~seg1:"rx" ~seg2:"rw" ~seg3:"" ~info:"r" ());
    Some (Mpu.sam_bits ~seg1:"x" ~seg2:"w" ~seg3:"r" ());
  ]

let test_bus_every_address () =
  let rand = Random.State.make [| Test_support.Seed.master_seed |] in
  let bytes =
    Bytes.init 0x10000 (fun _ -> Char.chr (Random.State.int rand 256))
  in
  let read w = ((fun m -> M.bus_read m w), fun m -> Ref_bus.bus_read m w) in
  let accesses =
    [ ("byte read", read Word.W8); ("word read", read Word.W16);
      ("fetch", (M.fetch, Ref_bus.fetch)) ]
  in
  let outcome f m addr =
    match f m addr with v -> Ok v | exception M.Fault fault -> Error fault
  in
  List.iter
    (fun sam ->
      let mk () =
        let m = M.create () in
        M.load_bytes m ~addr:0 bytes;
        Option.iter
          (fun sam ->
            Mpu.configure m.M.mpu ~b1:mpu_b1 ~b2:mpu_b2 ~sam ~enable:true)
          sam;
        let log = ref [] in
        M.add_watch m (fun e -> log := e :: !log);
        (m, log)
      in
      let (a, la), (b, lb) = (mk (), mk ()) in
      for addr = 0 to 0xFFFF do
        List.iter
          (fun (what, (f, g)) ->
            if outcome f a addr <> outcome g b addr then
              Alcotest.failf "%s at %04X disagrees with Ref_bus" what addr)
          accesses
      done;
      compare_machines ~at:"every address" a b;
      if !la <> !lb then Alcotest.fail "event logs diverged";
      Alcotest.(check int) "violation flags" (Mpu.violation_flags b.M.mpu)
        (Mpu.violation_flags a.M.mpu))
    bus_configs

let instruction_lockstep =
  let name = "every instruction form in lockstep" in
  QCheck2.Test.make ~count:3000 ~name ~print:show_icase gen_icase
    (report ~show:show_icase name (fun c ->
         let a = icase_machine c and b = icase_machine c in
         let warm = M.snapshot a in
         ignore (M.run ~fuel:1 a);
         M.restore a warm;
         let ra = M.run ~fuel:1 a and rb = Refstep.run ~fuel:1 b in
         if ra <> rb then
           Printf.ksprintf failwith "stop run=%s ref=%s" (show_stop ra)
             (show_stop rb);
         compare_machines ~at:"after one instruction" a b;
         Mpu.violation_flags a.M.mpu = Mpu.violation_flags b.M.mpu))

(* The certifier's model of an instruction against the specification,
   one random instruction run through [Refstep], whether it retires or
   faults: every register it changes is one [Opcode.writes_reg] names
   (PC counts only when it ends anywhere but past the instruction); a
   store to memory or a peripheral means [Opcode.writes_memory]; and a
   jump that retires lands past itself or at [Opcode.jump_target]. *)
let effects_cover_changes =
  let name = "Opcode effects cover every change" in
  QCheck2.Test.make ~count:3000 ~name ~print:show_icase gen_icase
    (report ~show:show_icase name (fun c ->
         let m = icase_machine c in
         let before = Array.copy (M.regs m) in
         let stored = ref false in
         M.add_watch m (function
           | Trace.Mem_write _ | Trace.Io_write _ -> stored := true
           | _ -> ());
         let stop = Refstep.run ~fuel:1 m in
         let after = M.regs m in
         let next = code_base + (2 * List.length (Encode.encode c.i_instr)) in
         let pc = after.(Regs.pc) in
         List.for_all
           (fun r ->
             let moved =
               if r = Regs.pc then pc <> next else after.(r) <> before.(r)
             in
             (not moved) || Opcode.writes_reg c.i_instr r)
           (List.init 16 Fun.id)
         && ((not !stored) || Opcode.writes_memory c.i_instr)
         &&
         match (stop, Opcode.jump_target c.i_instr ~pc:code_base) with
         | M.Out_of_fuel, Some t -> pc = next || pc = t
         | _ -> true))

(* The lean runner's exits.  A block runs lean only while nothing
   observes the machine, so each program runs twice: unobserved, and on
   a twin with a no-op watcher and step hook, which keeps every block
   in the careful loop.  The lean runner checks for a stop, a code
   write, a new MPU key and a new hook only after a uop that may store;
   each case stores mid-block and needs one of those checks to stop or
   hand over before the next uop. *)
let both_loops ?(arm = ignore) prog ~expect =
  let mk observed =
    let m = M.create () in
    M.load_words m ~addr:code_base prog;
    M.set_reset_vector m code_base;
    M.reset m;
    arm m;
    if observed then begin
      M.add_watch m ignore;
      M.add_step_hook m ignore
    end;
    m
  in
  let lean = mk false and careful = mk true in
  let rl = M.run ~fuel:1000 lean and rc = M.run ~fuel:1000 careful in
  Alcotest.(check string) "stop reason" (show_stop rc) (show_stop rl);
  Alcotest.(check string) "expected stop" expect (show_stop rl);
  compare_machines ~at:"stop" careful lean;
  Alcotest.(check int) "violation flags"
    (Mpu.violation_flags careful.M.mpu)
    (Mpu.violation_flags lean.M.mpu);
  lean

let store_to port v =
  Opcode.Fmt1
    (Opcode.MOV, Word.W16, Opcode.S_immediate v, Opcode.D_absolute port)

let test_lean_sw_fault () =
  let m =
    both_loops
      (words_of
         [
           mov_imm 0x1111 (Opcode.D_reg 5);
           store_to M.sw_fault_port 7;
           mov_imm 0x2222 (Opcode.D_reg 6);
           mov_imm 0x3333 (Opcode.D_reg 7);
           halt;
         ])
      ~expect:"software fault 7"
  in
  Alcotest.(check int) "no uop after the store" 0 (reg m 6)

(* Code at [code_base] in segment 1, executable; segment 2 readable and
   writable only. *)
let code_segment m =
  Mpu.configure m.M.mpu ~b1:mpu_b1 ~b2:mpu_b2
    ~sam:(Mpu.sam_bits ~seg1:"rx" ~seg2:"rw" ~seg3:"" ())
    ~enable:true

let test_lean_mpu_revokes (_, port, v, seg) () =
  ignore
    (both_loops ~arm:code_segment
       (words_of
          [
            mov_imm 0x1111 (Opcode.D_reg 5);
            store_to port v;
            mov_imm 0x2222 (Opcode.D_reg 6);
            halt;
          ])
       ~expect:
         (Printf.sprintf
            "fault (MPU violation: execute of 440A (%s) at pc=440A)" seg))

let revocations =
  [
    (* segment 1 loses execute *)
    ( "MPUSAM",
      Mpu.sam_addr,
      Mpu.sam_bits ~seg1:"r" ~seg2:"rw" ~seg3:"" (),
      "seg1" );
    (* the code falls into segment 2 *)
    ("MPUSEGB1", Mpu.segb1_addr, Mpu.border code_base, "seg2");
  ]

let test_lean_hook_armed () =
  let logs = Array.make 2 [] in
  let arm_at i m =
    m.M.host_call <-
      (fun m _ ->
        M.add_step_hook m (fun m ->
            let pc = Regs.get_pc (M.regs m) in
            logs.(i) <-
              Boundary (pc, M.cycles m, m.M.stats.Trace.fetch_words)
              :: logs.(i));
        M.add_watch m (fun e -> logs.(i) <- Event e :: logs.(i)))
  in
  let turn = ref 0 in
  let arm m =
    arm_at !turn m;
    incr turn
  in
  ignore
    (both_loops ~arm
       (words_of
          [
            mov_imm 0x1111 (Opcode.D_reg 5);
            store_to M.host_call_port 1;
            mov_imm 0x2222 (Opcode.D_reg 6);
            mov_imm 0x3333 (Opcode.D_reg 7);
            halt;
          ])
       ~expect:"halted");
  Alcotest.(check int) "a boundary for each later instruction" 3
    (boundaries logs.(0));
  if logs.(0) <> logs.(1) then
    Alcotest.fail "hooks armed by a host call saw different runs"

(* Attack-corpus observer effect: every corpus attack that builds,
   under every isolation mode, dispatched on two kernels over the same
   firmware: one with nothing attached, one with a no-op watcher and a
   no-op step hook, so every boundary runs the hook and every event
   record is built.  Virtual time, every dispatch record (cycles,
   access counts, outcome, fault identity included), console, register
   file and full memory must match after the run.  A kernel drives
   [Machine.run] itself, so [Refstep] cannot stand in for one; the
   lockstep above covers the semantics. *)

module Attacks = Amulet_sec.Attacks
module Kernel = Amulet_os.Kernel

let observe k =
  M.add_watch k.Kernel.machine (fun _ -> ());
  M.add_step_hook k.Kernel.machine ignore

let corpus_lockstep_mode mode () =
  List.iter
    (fun attack ->
      match Attacks.build_cell ~attack ~mode with
      | Attacks.Rejected _ -> ()
      | Attacks.Built { fw; _ } ->
        let name = attack.Attacks.atk_name in
        let bare = Kernel.create ~policy:Kernel.Disable fw in
        let seen = Kernel.create ~policy:Kernel.Disable fw in
        observe seen;
        let ra = Kernel.run_for_ms bare 60 in
        if Kernel.run_for_ms seen 60 <> ra then
          Alcotest.failf "%s: dispatch records diverged" name;
        compare_machines ~at:name bare.Kernel.machine seen.Kernel.machine)
    Attacks.corpus

(* Config-keyed block validation.  An MPU-mode dispatch switches the
   unit from the OS configuration to the app's and back, and every
   gate crossing does so again.  A block validated while the app runs
   must keep its key across that round trip, so the next dispatch
   needs no per-word Exec checks.  Once the configuration can no
   longer become the app's, the stale key must not be trusted: the
   handler then faults at the same pc and cycle as on a machine whose
   every boundary is observed. *)

module Aft = Amulet_aft.Aft
module Event = Amulet_os.Event
module Predecode = Amulet_mcu.Predecode

let keyed_app =
  {
    Aft.name = "keyed";
    source =
      {|
int acc = 0;
void handle_init(int arg) { acc = 0; }
void handle_button(int arg) {
  int i;
  for (i = 0; i < 8; i++) acc += i;
  api_null();
}
|};
  }

let test_keyed_validation () =
  let fw = Aft.build ~mode:Iso.Mpu_assisted [ keyed_app ] in
  let bare = Kernel.create ~policy:Kernel.Disable fw in
  let seen = Kernel.create ~policy:Kernel.Disable fw in
  observe seen;
  let press k =
    Kernel.post k ~delay_ms:0 ~app:0 (Event.Button 1) ~arg:1;
    match Kernel.dispatch_next k with
    | Some r -> r
    | None -> Alcotest.fail "button event not dispatched"
  in
  let both () =
    let a = press bare and b = press seen in
    if a <> b then
      Alcotest.failf "dispatch records diverged (%d vs %d cycles)"
        a.Kernel.dr_cycles b.Kernel.dr_cycles;
    a
  in
  ignore (Kernel.run_for_ms bare 1);
  ignore (Kernel.run_for_ms seen 1);
  ignore (both ());
  let haddr =
    Option.get (Aft.handler_addr bare.Kernel.apps.(0).Kernel.build "handle_button")
  in
  let mpu = bare.Kernel.machine.M.mpu in
  let block () = (Hashtbl.find bare.Kernel.machine.M.blocks haddr).M.pre in
  let b = block () in
  let key = b.Predecode.b_mpu_key in
  Alcotest.(check bool) "handler block validated" true (key >= 0);
  Alcotest.(check bool) "OS configuration live between dispatches" true
    (mpu.Mpu.key <> key);
  ignore (both ());
  Alcotest.(check bool) "same cached block" true (block () == b);
  Alcotest.(check int) "key kept across the OS round trip" key
    b.Predecode.b_mpu_key;
  (* Lock the unit in the OS configuration, which grants the app region
     rw but not x: the trampoline's reconfiguration writes are then
     ignored, and the handler's first fetch must fault. *)
  List.iter
    (fun k -> Mpu.raw_set k.Kernel.machine.M.mpu Mpu.Raw_ctl0 0x03)
    [ bare; seen ];
  let r = both () in
  (match r.Kernel.dr_outcome with
  | Kernel.App_fault msg ->
    Alcotest.(check string) "fault at the handler entry"
      (Printf.sprintf "MPU violation: execute of %04X (seg3) at pc=%04X" haddr
         haddr)
      msg
  | _ -> Alcotest.fail "revoked execute permission did not fault");
  Alcotest.(check int) "same cycle as the observed run"
    (M.cycles seen.Kernel.machine)
    (M.cycles bare.Kernel.machine)

(* Fused stack runs.  The lean runner runs a run of word PUSH Rn or
   word MOV @SP+, Rn (n >= 4) as one step when every check its uops
   would make passes for the whole run, and otherwise runs them one by
   one.  Each case runs three ways: unobserved (the lean runner), on a
   twin with a no-op watcher (the careful loop, which never fuses), and
   on [Refstep].  Registers, memory, cycles, the retired count, the
   statistics, the stop and its fault must agree, and so must the
   MPU's violation flags and, between the two interpreters, Memory's
   page books. *)

module Mem_map = Amulet_mcu.Memory_map

let push r = Opcode.Fmt2 (Opcode.PUSH, Word.W16, Opcode.S_reg r)

let pop r =
  Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_indirect_inc Regs.sp,
    Opcode.D_reg r)

let saves = List.init 8 (fun i -> push (4 + i))
let restores = List.init 8 (fun i -> pop (11 - i))

let books m =
  let mem = m.M.mem in
  ( Bytes.to_string mem.Mem.state,
    Bytes.sub_string mem.Mem.written 0 mem.Mem.nwritten,
    mem.Mem.code_gen,
    mem.Mem.dirty )

(* Mark the pages of [lo, hi] written since the last snapshot. *)
let touch m lo hi =
  for p = lo lsr 8 to hi lsr 8 do
    let a = p lsl 8 in
    M.mem_checked_write m Word.W8 a (M.mem_checked_read m Word.W8 a)
  done

let stack_regs = [| 0x1234; 0xA5F0; 0x0001; 0x8000; 0xFFFF; 0x4C3B; 0x0F0F;
                    0x7E81; 0x2468; 0xBEEF; 0x00FF; 0x5AA5 |]

(* [prog] at [code_base], R4-R15 from [regs], SP at [sp], then [setup];
   each run in [fuels] on all three machines, compared after each. *)
let fused_three_ways ?(setup = ignore) ?(regs = stack_regs)
    ?(fuels = [ 1000 ]) ?expect ~sp prog =
  let mk () =
    let m = M.create () in
    M.load_words m ~addr:code_base (words_of prog);
    M.set_reset_vector m code_base;
    M.reset m;
    Array.iteri (fun i v -> Regs.set (M.regs m) (4 + i) v) regs;
    Regs.set (M.regs m) Regs.sp sp;
    setup m;
    m
  in
  let lean = mk () and careful = mk () and spec = mk () in
  M.add_watch careful ignore;
  let last =
    List.fold_left
      (fun _ fuel ->
        let rl = M.run ~fuel lean and rc = M.run ~fuel careful in
        let rs = Refstep.run ~fuel spec in
        let at = Printf.sprintf "fuel %d" fuel in
        if rl <> rs || rc <> rs then
          Printf.ksprintf failwith "%s: lean %s, careful %s, spec %s" at
            (show_stop rl) (show_stop rc) (show_stop rs);
        compare_machines ~at:(at ^ ", careful") careful lean;
        compare_machines ~at:(at ^ ", spec") spec lean;
        if Mpu.violation_flags lean.M.mpu <> Mpu.violation_flags spec.M.mpu
           || Mpu.violation_flags careful.M.mpu
              <> Mpu.violation_flags spec.M.mpu
        then failwith (at ^ ": violation flags");
        if books lean <> books careful then failwith (at ^ ": page books");
        show_stop rl)
      "" fuels
  in
  Option.iter (fun e -> Alcotest.(check string) "stop" e last) expect;
  lean

let word_at m a = M.mem_checked_read m Word.W16 a

(* SP at 0x2008: the pushes cross from page 0x20 into page 0x1F.
   After the snapshot only page 0x20 is written, so the run goes uop
   by uop and [Memory.write] books page 0x1F; with both written it
   fuses. *)
let test_burst_page_edge () =
  let snapshot_then pages m =
    ignore (M.snapshot m);
    List.iter (fun p -> touch m (p lsl 8) (p lsl 8)) pages
  in
  List.iter
    (fun pages ->
      let m =
        fused_three_ways ~setup:(snapshot_then pages) ~sp:0x2008
          (saves @ restores @ [ halt ]) ~expect:"halted"
      in
      Alcotest.(check int) "R11 saved lowest" stack_regs.(7)
        (word_at m 0x1FF8);
      Alcotest.(check int) "R4 saved highest" stack_regs.(0) (word_at m 0x2006);
      Alcotest.(check int) "SP back" 0x2008 (reg m Regs.sp))
    [ [ 0x20 ]; [ 0x1F ]; [ 0x1F; 0x20 ]; [] ]

(* Code in segment 1 (read and execute), segment 2 from 0x5000 read
   and write, segment 3 from 0x6000 no access. *)
let stack_mpu m =
  Mpu.configure m.M.mpu ~b1:mpu_b1 ~b2:mpu_b2
    ~sam:(Mpu.sam_bits ~seg1:"rx" ~seg2:"rw" ~seg3:"" ())
    ~enable:true

(* The pushes' lower end crosses 0x5000 into segment 1, which denies
   the write: the fifth push faults, with SP and the fetch words where
   the uop-by-uop path leaves them.  The pops' upper end crosses 0x6000
   into segment 3, which denies the read. *)
let test_burst_mpu_denied () =
  let setup m =
    touch m 0x4F00 0x6100;
    stack_mpu m
  in
  let m =
    fused_three_ways ~setup ~sp:0x5008 (saves @ [ halt ])
      ~expect:"fault (MPU violation: write of 4FFE (seg1) at pc=440A)"
  in
  Alcotest.(check int) "SP at the faulting push" 0x4FFE (reg m Regs.sp);
  Alcotest.(check int) "five fetch words" 5 m.M.stats.Trace.fetch_words;
  let m =
    fused_three_ways ~setup ~sp:0x5FF8 (restores @ [ halt ])
      ~expect:"fault (MPU violation: read of 6000 (seg3) at pc=440A)"
  in
  Alcotest.(check int) "SP past the faulting pop" 0x6002 (reg m Regs.sp)

let test_burst_odd_sp () =
  List.iter
    (fun sp ->
      ignore
        (fused_three_ways
           ~setup:(fun m -> touch m 0x1E00 0x2100)
           ~sp (saves @ restores @ [ halt ]) ~expect:"halted"))
    [ 0x2001; 0x1F81; 0x2009 ]

(* Four pushes from SP 0x0004 store to two peripheral addresses, then
   wrap to the vectors; four pops from 0xFFFC wrap into the
   peripherals. *)
let test_burst_wrap () =
  let four = List.filteri (fun i _ -> i < 4) in
  ignore
    (fused_three_ways ~setup:(fun m -> touch m 0xFF00 0xFFFF) ~sp:0x0004
       (four saves @ [ halt ]) ~expect:"halted");
  ignore
    (fused_three_ways ~setup:(fun m -> touch m 0xFF00 0xFFFF) ~sp:0xFFFC
       (four restores @ [ halt ]) ~expect:"halted")

(* Pops that run from SRAM's top page into unmapped space fault at
   0x2400; pops from the last peripheral page read MMIO, then the
   bootstrap ROM. *)
let test_burst_pop_unbacked () =
  ignore
    (fused_three_ways ~sp:0x23FC (restores @ [ halt ])
       ~expect:"fault (unmapped read of 2400 at pc=4406)");
  ignore
    (fused_three_ways ~sp:0x0FFC (restores @ [ halt ]) ~expect:"halted")

(* Pushes into the page of the running code.  From SP 0x4480 they
   land past the block; from 0x4414 they overwrite the halt and the
   pushes still to come with the same words, so each store is a code
   write that flushes the block, as uop by uop. *)
let test_burst_code_page () =
  ignore
    (fused_three_ways ~sp:0x4480 (saves @ [ halt ]) ~expect:"halted");
  let enc i = List.hd (Encode.encode i) in
  let halt_words = Encode.encode halt in
  let regs =
    Array.mapi
      (fun i v ->
        match i with
        | 0 -> List.nth halt_words 1
        | 1 -> List.nth halt_words 0
        | 2 | 3 | 4 -> enc (push (13 - i))
        | _ -> v)
      stack_regs
  in
  let m =
    fused_three_ways ~regs ~sp:0x4414 (saves @ [ halt ]) ~expect:"halted"
  in
  Alcotest.(check bool) "code writes seen" true (m.M.mem.Mem.code_gen > 0)

(* Fuel that ends inside a run: the careful loop runs the first
   pushes, and the next call starts a block in the run's middle. *)
let test_burst_fuel () =
  ignore
    (fused_three_ways ~fuels:[ 3; 6; 1000 ]
       ~setup:(fun m -> touch m 0x1F00 0x2000)
       ~sp:0x2008 (saves @ restores @ [ halt ]) ~expect:"halted")

(* Random runs: registers, the registers a run names, its length, SP
   near page, granule, region and written-page edges, the pages written
   since the snapshot and the MPU's configuration. *)
type bcase = {
  bc_prog : Opcode.t list;
  bc_regs : int array;
  bc_sp : int;
  bc_touched : int list;  (* pages written after the snapshot *)
  bc_mpu : (int * int * string * string * string * string) option;
}

let show_bcase c =
  Printf.sprintf "%s\nR4..R15 = [%s]\nSP %04X, pages written %s\nmpu %s\n"
    (String.concat "; " (List.map Opcode.to_string c.bc_prog))
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%04X") c.bc_regs)))
    c.bc_sp
    (String.concat "," (List.map (Printf.sprintf "%02X") c.bc_touched))
    (match c.bc_mpu with
    | None -> "off"
    | Some (b1, b2, s1, s2, s3, info) ->
      Printf.sprintf "b1 %04X b2 %04X seg1 %S seg2 %S seg3 %S info %S" b1 b2
        s1 s2 s3 info)

let gen_bcase =
  let open QCheck2.Gen in
  let rights = oneofl [ ""; "r"; "w"; "rw" ] in
  let* mpu =
    opt
      (let* b1 = map (fun g -> 0x4800 + (g * 0x400)) (int_range 0 10) in
       let* b2 = map (fun g -> b1 + (g * 0x400)) (int_range 0 8) in
       let* s1 = rights and* s2 = rights and* s3 = rights in
       let+ info = rights in
       (b1, b2, s1 ^ "x", s2, s3, info))
  in
  let edges =
    [ 0x0000; 0x0100; 0x0FFF; 0x1A00; 0x1C00; 0x1D00; 0x1D80; 0x2000;
      0x2400; 0x4500; 0x4580; 0xFF80; 0xFFFF ]
    @ (match mpu with
      | Some (b1, b2, _, _, _, _) -> [ b1; b1 + 0x80; b2; b2 - 0x80 ]
      | None -> [ 0x5000; 0x6000 ])
  in
  let* sp =
    map2 (fun e d -> (e + d) land 0xFFFF) (oneofl edges) (int_range (-24) 24)
  in
  let* len = frequency [ (8, int_range 2 12); (1, int_range 13 40) ] in
  let* named = list_repeat len (int_range 4 15) in
  let* shape = int_range 0 2 in
  let bc_prog =
    (match shape with
    | 0 -> List.map push named
    | 1 -> List.map pop named
    | _ -> List.map push named @ List.map pop (List.rev named))
    @ [ halt ]
  in
  let* bc_regs = array_repeat 12 (int_range 0 0xFFFF) in
  let+ keep = list_repeat 3 bool in
  let near = List.init 3 (fun i -> ((sp lsr 8) + i - 1) land 0xFF) in
  let bc_touched = List.filteri (fun i _ -> List.nth keep i) near in
  { bc_prog; bc_regs; bc_sp = sp; bc_touched; bc_mpu = mpu }

let bursts_agree =
  let name = "fused stack runs = careful loop = Refstep" in
  QCheck2.Test.make ~count:1000 ~name ~print:show_bcase gen_bcase
    (report ~show:show_bcase name (fun c ->
         let setup m =
           ignore (M.snapshot m);
           List.iter
             (fun p ->
               let a = p lsl 8 in
               if Mem_map.region_of_addr a <> Mem_map.Peripherals then
                 touch m a a)
             c.bc_touched;
           Option.iter
             (fun (b1, b2, seg1, seg2, seg3, info) ->
               Mpu.configure m.M.mpu ~b1 ~b2
                 ~sam:(Mpu.sam_bits ~seg1 ~seg2 ~seg3 ~info ())
                 ~enable:true)
             c.bc_mpu
         in
         ignore
           (fused_three_ways ~setup ~regs:c.bc_regs ~fuels:[ 300 ]
              ~sp:c.bc_sp c.bc_prog);
         true))

(* Every gate saves R4-R11 with one run and restores them with another:
   after one dispatch of gateheavy, each gate block the kernel ran
   holds one run of eight pushes and one of eight pops, and the lean
   runner has built their fused steps. *)
let test_gates_fuse mode () =
  let module Suite = Amulet_apps.Suite in
  let fw = Aft.build ~mode [ Suite.spec_for mode Suite.gateheavy ] in
  let k = Kernel.create fw in
  Kernel.post k ~delay_ms:0 ~app:0 (Event.Button 1) ~arg:1;
  ignore (Kernel.dispatch_next k);
  ignore (Kernel.dispatch_next k);
  let image = fw.Aft.fw_image in
  let gates =
    Array.to_list Amulet_cc.Apis.services
    |> List.filter_map (fun s ->
           let l = Amulet_cc.Apis.gate_label s.Amulet_cc.Apis.name in
           if Amulet_link.Image.has_symbol image l then
             Some (Amulet_link.Image.symbol image l)
           else None)
  in
  let ran =
    List.filter_map (Hashtbl.find_opt k.Kernel.machine.M.blocks) gates
  in
  Alcotest.(check bool) "gate blocks ran" true (List.length ran >= 2);
  List.iter
    (fun b ->
      let uops = b.M.pre.Predecode.b_uops in
      let at =
        Printf.sprintf "%s gate at %04X" (Iso.name mode)
          b.M.pre.Predecode.b_lo
      in
      let runs =
        Array.to_list uops
        |> List.filter (fun u -> u.Predecode.u_run > 0)
        |> List.map (fun u ->
               (Opcode.to_string u.Predecode.u_instr, u.Predecode.u_run))
      in
      Alcotest.(check (list (pair string int)))
        at
        [ (Opcode.to_string (push 4), 8); (Opcode.to_string (pop 11), 8) ]
        runs;
      Alcotest.(check int) (at ^ ": fused steps") (Array.length uops)
        (Array.length b.M.bursts))
    ran

let () =
  let to_alcotest = Test_support.Seed.to_alcotest in
  Alcotest.run "diff"
    [
      ( "reference-vs-simulator",
        List.map to_alcotest
          [
            diff_property Iso.No_isolation;
            diff_property Iso.Mpu_assisted;
            diff_property Iso.Software_only;
            diff_property Iso.Feature_limited;
            mode_agreement;
          ] );
      ( "static-certification",
        List.map to_alcotest
          [
            static_certification Iso.Mpu_assisted;
            static_certification Iso.Software_only;
          ] );
      ( "lockstep",
        List.map to_alcotest
          [
            lockstep_property Iso.No_isolation;
            lockstep_property Iso.Mpu_assisted;
            lockstep_property Iso.Software_only;
            lockstep_property Iso.Feature_limited;
            whole_run_property Iso.No_isolation;
            whole_run_property Iso.Mpu_assisted;
            whole_run_property Iso.Software_only;
            whole_run_property Iso.Feature_limited;
          ]
        @ List.map
            (fun mode ->
              Alcotest.test_case
                ("attack corpus (" ^ Iso.name mode ^ ")")
                `Quick (corpus_lockstep_mode mode))
            Iso.all
        @ [
            Alcotest.test_case "keyed validation (mpu)" `Quick
              test_keyed_validation;
            Alcotest.test_case "mmio fetch" `Quick test_mmio_fetch;
            Alcotest.test_case "unmapped fetch" `Quick test_unmapped_fetch;
            Alcotest.test_case "illegal word" `Quick test_illegal_word;
            Alcotest.test_case "hook patches the running block" `Quick
              test_hook_patches_block;
            Alcotest.test_case "hook moves pc mid-block" `Quick
              test_hook_moves_pc;
            Alcotest.test_case "store patches the running block" `Quick
              test_store_patches_block;
            Alcotest.test_case "lean exit: software fault mid-block" `Quick
              test_lean_sw_fault;
          ]
        @ List.map
            (fun ((what, _, _, _) as r) ->
              Alcotest.test_case
                ("lean exit: " ^ what ^ " revokes its own block")
                `Quick (test_lean_mpu_revokes r))
            revocations
        @ [
            Alcotest.test_case "lean exit: host call arms hooks" `Quick
              test_lean_hook_armed;
            Alcotest.test_case "bus = Ref_bus at every address" `Quick
              test_bus_every_address;
            to_alcotest instruction_lockstep;
            to_alcotest effects_cover_changes;
          ] );
      ( "bursts",
        [
          Alcotest.test_case "page edge, lower page unwritten" `Quick
            test_burst_page_edge;
          Alcotest.test_case "MPU denies an end granule" `Quick
            test_burst_mpu_denied;
          Alcotest.test_case "odd SP" `Quick test_burst_odd_sp;
          Alcotest.test_case "SP wraps" `Quick test_burst_wrap;
          Alcotest.test_case "pops into MMIO and unmapped" `Quick
            test_burst_pop_unbacked;
          Alcotest.test_case "pushes into a watched code page" `Quick
            test_burst_code_page;
          Alcotest.test_case "fuel ends inside a run" `Quick test_burst_fuel;
          to_alcotest bursts_agree;
        ]
        @ List.map
            (fun mode ->
              Alcotest.test_case
                ("gates fuse (" ^ Iso.name mode ^ ")")
                `Quick (test_gates_fuse mode))
            Iso.all );
    ]
