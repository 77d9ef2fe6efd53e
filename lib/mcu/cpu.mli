(** The register file, the counters, and the specification of every
    instruction form.

    The CPU owns the register file and the cycle and retired-instruction
    counters.  Its executors state what each instruction does, reading
    and writing data through the {!bus} the caller passes, where MPU
    checks, MMIO dispatch and tracing happen.  They are the
    specification, not the simulator's fast path: {!Machine.run} runs
    its own executors, one per predecoded micro-op specialised on the
    uop's form, and the tests' reference stepper runs these, so the
    lockstep compares two implementations.  Fetch and decode are not
    here.  Bus functions may raise; the exception aborts the current
    instruction. *)

type bus = {
  read : Word.width -> int -> int;  (** a data read *)
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  mutable cycles : int;  (** total cycles executed *)
  mutable insns : int;  (** total instructions retired *)
}

val create : unit -> t

(** {2 Executors}

    One per instruction form.  They allocate nothing beyond what the
    bus does.  Callers must have advanced PC past the instruction
    first and pass the extension-word addresses fetch used; the
    caller charges cycles and counts the instruction after the
    executor returns. *)

val exec_fmt1 :
  bus ->
  t ->
  Opcode.op2 ->
  Word.width ->
  Opcode.src ->
  Opcode.dst ->
  src_ext_addr:int ->
  dst_ext_addr:int ->
  unit

val exec_fmt2 :
  bus -> t -> Opcode.op1 -> Word.width -> Opcode.src -> src_ext_addr:int ->
  unit

val exec_reti : bus -> t -> unit

val cond_true : Registers.t -> Opcode.cond -> bool
