(** Assembly language with symbolic operands — what the compiler and
    the AFT stub generators emit, and what the assembler lowers to
    machine words once the linker has assigned addresses.

    Emulated MSP430 instructions (RET, POP, BR, CLR, ...) are provided
    as helper constructors that expand to real format I/II
    instructions, so their cycle costs follow the hardware tables. *)

(** Link-time constant expression. *)
type expr =
  | Num of int
  | Sym of string  (** value of a linker symbol *)
  | Off of string * int  (** symbol + constant offset *)
  | Border of string
      (** MPU boundary-register value of the symbol's address, rounded
          up to the next granule edge ({!Amulet_mcu.Mpu.border}) *)

type src =
  | Sreg of int
  | Sidx of int * expr  (** x(Rn) *)
  | Sabs of expr  (** &ADDR *)
  | Sind of int  (** @Rn *)
  | Sinc of int  (** @Rn+ *)
  | Simm of expr  (** #N *)

type dst = Dreg of int | Didx of int * expr | Dabs of expr

type insn =
  | I1 of Amulet_mcu.Opcode.op2 * Amulet_mcu.Word.width * src * dst
  | I2 of Amulet_mcu.Opcode.op1 * Amulet_mcu.Word.width * src
  | Ijmp of Amulet_mcu.Opcode.cond * string  (** conditional jump to label *)
  | Ireti

(** One element of a section body. *)
type item =
  | Ins of insn
  | Label of string
  | Dword of expr  (** 16-bit datum *)
  | Dbytes of string  (** raw bytes *)
  | Space of int  (** zero-filled bytes *)
  | Align2  (** pad to even address *)
  | Comment of string

val pp_item : Format.formatter -> item -> unit

(* Registers by role. *)

val r_pc : int
val r_sp : int
val r_sr : int

(** R12: return value / first argument (TI convention) *)
val r_ret : int

(** R13 *)
val r_arg2 : int

(** R14 *)
val r_arg3 : int

(** R15 *)
val r_arg4 : int

(** R4: frame pointer *)
val r_fp : int

(* Convenience constructors (word width unless noted). *)

val mov : src -> dst -> item
val movb : src -> dst -> item
val add : src -> dst -> item
val sub : src -> dst -> item
val cmp : src -> dst -> item
val and_ : src -> dst -> item
val bis : src -> dst -> item
val bic : src -> dst -> item
val xor : src -> dst -> item
val bit : src -> dst -> item
val push : src -> item

(** CALL #label *)
val call : string -> item
val call_reg : int -> item
val jmp : string -> item
val jcc : Amulet_mcu.Opcode.cond -> string -> item

(** MOV @SP+, PC *)
val ret : item

(** MOV @SP+, Rn *)
val pop : int -> item

(** MOV #addr, PC *)
val br : expr -> item
val clr : dst -> item
val inc : dst -> item
val dec : dst -> item
val tst : dst -> item
val nop : item
val imm : int -> src
val sym : string -> src
val label : string -> item
