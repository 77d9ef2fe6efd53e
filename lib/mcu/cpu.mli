(** Fetch-decode-execute engine.

    The CPU owns the register file and an instruction/cycle budget; it
    talks to the rest of the machine through a {!bus}, which is where
    MPU checks, MMIO dispatch and tracing are implemented (see
    {!Machine}).  Bus functions may raise; the exception aborts the
    current instruction and propagates out of {!step}. *)

(** Why the CPU is touching memory. *)
type access = Afetch | Aread

type bus = {
  read : access -> Word.width -> int -> int;
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  bus : bus;
  mutable cycles : int;  (** total cycles executed *)
  mutable insns : int;  (** total instructions retired *)
}

val create : bus -> t

val step : t -> Opcode.t
(** Execute one instruction; returns it (for tracing).  Raises
    whatever the bus raises on a faulting access, and
    {!Decode.Illegal} on an undecodable word. *)

(** {2 Execution primitives}

    The per-form executors behind {!step}, exposed so the machine's
    predecoded-block engine can run instructions it has already
    decoded without re-entering fetch/decode.  Both engines share this
    exact code, so their semantics cannot drift.  They allocate
    nothing beyond what the bus does.  Callers must have advanced PC
    past the instruction first (as {!step} does) and pass the
    extension-word addresses that fetch would have used. *)

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

val call_depth_hint : t -> int
(** Stack pointer value, useful to assert stack discipline in tests. *)
