(** The MSP430 register file and status-register flags.

    R0 = program counter, R1 = stack pointer, R2 = status register /
    constant generator 1, R3 = constant generator 2, R4..R15 general
    purpose. *)

type t = int array
(** R0..R15, each holding a 16-bit value.  Concrete so the CPU's
    executors index it without a call; everything else reads and
    writes through {!get} and {!set}, which keep values 16-bit. *)

val pc : int
val sp : int
val sr : int
val cg2 : int

val create : unit -> t
val get : t -> int -> int
val set : t -> int -> int -> unit

val get_pc : t -> int
val set_pc : t -> int -> unit
val get_sp : t -> int
val set_sp : t -> int -> unit

(** Status-register flag accessors (bit positions follow the MSP430:
    C=0, Z=1, N=2, GIE=3, V=8). *)

val bit_c : int
val bit_z : int
val bit_n : int
val bit_v : int
(** The flag masks within SR. *)

val carry : t -> bool
val zero : t -> bool
val negative : t -> bool
val overflow : t -> bool
val gie : t -> bool

val set_carry : t -> bool -> unit
val set_zero : t -> bool -> unit
val set_negative : t -> bool -> unit
val set_overflow : t -> bool -> unit
val set_gie : t -> bool -> unit

val set_nz : t -> Word.width -> int -> unit
(** Set N and Z from a result value of the given width. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit
