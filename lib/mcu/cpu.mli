(** Instruction executors over the register file.

    The CPU owns the register file and the cycle and retired-instruction
    counters; it reads and writes data through a {!bus}, which is where
    MPU checks, MMIO dispatch and tracing are implemented (see
    {!Machine}).  Fetch and decode are not here: {!Machine.run} executes
    predecoded micro-ops ({!Predecode}) through these executors.  Bus
    functions may raise; the exception aborts the current instruction. *)

type bus = {
  read : Word.width -> int -> int;  (** a data read *)
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  bus : bus;
  mutable cycles : int;  (** total cycles executed *)
  mutable insns : int;  (** total instructions retired *)
}

val create : bus -> t

(** {2 Executors}

    One per instruction form.  They allocate nothing beyond what the
    bus does.  Callers must have advanced PC past the instruction
    first and pass the extension-word addresses fetch used; the
    caller charges cycles and counts the instruction after the
    executor returns. *)

val exec_fmt1 :
  t ->
  Opcode.op2 ->
  Word.width ->
  Opcode.src ->
  Opcode.dst ->
  src_ext_addr:int ->
  dst_ext_addr:int ->
  unit

val exec_fmt2 :
  t -> Opcode.op1 -> Word.width -> Opcode.src -> src_ext_addr:int -> unit

val exec_reti : t -> unit

val cond_true : Registers.t -> Opcode.cond -> bool
