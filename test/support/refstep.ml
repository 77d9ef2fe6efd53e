(* The reference stepper: the specification [Machine.run] is tested
   against.  One instruction is fetched word by word through the
   machine's checked [fetch] as [Decode] asks for it, PC moves past it,
   the [Cpu] executors run, and its cost is charged only once it has
   retired.  Nothing is predecoded or cached.

   The boundary contract is the interpreter's: the step hook runs with
   no instruction in flight, then the watcher chain is snapshotted, and
   the instruction's events, its [Exec] or its [Fault_event], go to
   that snapshot. *)

module M = Amulet_mcu.Machine
module Cpu = Amulet_mcu.Cpu
module Cycles = Amulet_mcu.Cycles
module Decode = Amulet_mcu.Decode
module Encode = Amulet_mcu.Encode
module Opcode = Amulet_mcu.Opcode
module Registers = Amulet_mcu.Registers
module Trace = Amulet_mcu.Trace

let emit m e = Option.iter (fun f -> f e) m.M.emit_hook

let execute m instr ~pc0 ~len =
  let cpu = m.M.cpu in
  let regs = cpu.Cpu.regs in
  Registers.set_pc regs (pc0 + len);
  (match instr with
  | Opcode.Fmt1 (op, width, src, dst) ->
    let ext = if Encode.src_needs_ext width src then 2 else 0 in
    Cpu.exec_fmt1 cpu op width src dst ~src_ext_addr:(pc0 + 2)
      ~dst_ext_addr:(pc0 + 2 + ext)
  | Opcode.Fmt2 (op, width, src) ->
    Cpu.exec_fmt2 cpu op width src ~src_ext_addr:(pc0 + 2)
  | Opcode.Jump (c, off) ->
    if Cpu.cond_true regs c then Registers.set_pc regs (pc0 + 2 + (2 * off))
  | Opcode.Reti -> Cpu.exec_reti cpu);
  cpu.Cpu.cycles <- cpu.Cpu.cycles + Cycles.cycles instr;
  cpu.Cpu.insns <- cpu.Cpu.insns + 1

(* One instruction; the fault that stopped it, if any. *)
let step m =
  Option.iter (fun f -> f m) m.M.on_step;
  m.M.emit_hook <- m.M.on_event;
  m.M.in_step <- true;
  let pc0 = Registers.get_pc (M.regs m) in
  let fault =
    match
      let instr, len = Decode.decode ~fetch:(M.fetch m) ~addr:pc0 in
      execute m instr ~pc0 ~len;
      instr
    with
    | instr ->
      emit m (Trace.Exec { pc = pc0; instr });
      None
    | exception M.Fault f -> Some f
    | exception Decode.Illegal word ->
      Some (M.Illegal_instruction { pc = pc0; word })
  in
  Option.iter
    (fun f -> emit m (Trace.Fault_event (Format.asprintf "%a" M.pp_fault f)))
    fault;
  m.M.in_step <- false;
  fault

(* [Machine.run], restated: stop checks at every boundary, then one
   instruction. *)
let rec run ~fuel m =
  if m.M.halted then M.Halted
  else
    match m.M.sw_fault with
    | Some code -> M.Sw_fault code
    | None when fuel = 0 -> M.Out_of_fuel
    | None -> (
      match step m with
      | Some f -> M.Faulted f
      | None -> run ~fuel:(fuel - 1) m)
