(** Instruction set of the simulated core — the three real MSP430
    instruction formats.

    Registers are integers 0..15 (see {!Registers} for the roles of
    R0..R3).  Source and destination operands carry the seven MSP430
    addressing modes; the constant generators (R2/R3 special
    encodings) are handled by {!Encode} and {!Decode}, so immediates
    0, 1, 2, 4, 8 and -1 round-trip as immediates. *)

type reg = int

(** Source addressing modes (register field + As bits). *)
type src =
  | S_reg of reg  (** [Rn] *)
  | S_indexed of reg * int  (** [x(Rn)] *)
  | S_absolute of int  (** [&ADDR] *)
  | S_indirect of reg  (** [@Rn] *)
  | S_indirect_inc of reg  (** [@Rn+] *)
  | S_immediate of int  (** [#N] *)

(** Destination addressing modes (register field + Ad bit). *)
type dst =
  | D_reg of reg  (** [Rn] *)
  | D_indexed of reg * int  (** [x(Rn)] *)
  | D_absolute of int  (** [&ADDR] *)

(** Two-operand (format I) operations. *)
type op2 =
  | MOV | ADD | ADDC | SUBC | SUB | CMP | DADD | BIT | BIC | BIS | XOR | AND

(** Single-operand (format II) operations; RETI is separate. *)
type op1 = RRC | SWPB | RRA | SXT | PUSH | CALL

(** Jump conditions (format III). *)
type cond = JNE | JEQ | JNC | JC | JN | JGE | JL | JMP

type t =
  | Fmt1 of op2 * Word.width * src * dst
  | Fmt2 of op1 * Word.width * src
  | Jump of cond * int  (** signed word offset, -512..511 *)
  | Reti

val op2_name : op2 -> string
val op1_name : op1 -> string
val cond_name : cond -> string

val writes_back : op2 -> bool
(** CMP and BIT compute flags only. *)

val sets_flags : op2 -> bool
(** MOV, BIC and BIS leave the status flags untouched. *)

(** {2 Effects}

    Stated once for every pass over machine code; test_diff checks
    {!writes}, {!writes_memory} and {!jump_target} against {!Cpu}'s
    executors. *)

val writes : t -> int
(** Bit [r] set when the instruction may change register [r]: a
    write-back destination; the register operand of RRC, SWPB, RRA and
    SXT; every [@Rn+] base; SP for PUSH, CALL and RETI; SR when it sets
    the flags and for RETI; PC for jumps, CALL, RETI and any other PC
    write. *)

val writes_reg : t -> reg -> bool
val writes_memory : t -> bool
(** A write-back to a memory destination, RRC/SWPB/RRA/SXT on a memory
    operand, PUSH or CALL. *)

val is_ret : t -> bool
(** The canonical RET, [MOV @SP+, PC] at word width. *)

val br_target : t -> int option
(** The target of the canonical [BR #imm], [MOV #imm, PC] at word width. *)

val jump_target : t -> pc:int -> int option
(** Where a relative jump at [pc] lands. *)

val pp_src : Format.formatter -> src -> unit
val pp_dst : Format.formatter -> dst -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
