(** 16-bit and 8-bit machine words for the MSP430-like core.

    Values are plain OCaml [int]s constrained to the range of the
    operation width; every operation re-normalizes its result.  The
    arithmetic itself, with its status flags, lives in {!Cpu}'s
    executors (the specification) and in {!Machine}'s specialised
    ones. *)

type width = W8 | W16

val mask : width -> int
(** [mask w] is [0xFF] or [0xFFFF]. *)

val sign_bit : width -> int
(** Most-significant-bit mask for the width. *)

val norm : width -> int -> int
(** Truncate to the width (two's-complement wrap-around). *)

val is_negative : width -> int -> bool
(** True if the sign bit of the normalized value is set. *)

val to_signed : width -> int -> int
(** Interpret the value as a signed two's-complement integer. *)

val of_signed : width -> int -> int
(** Inverse of {!to_signed}: wrap a signed integer into the width. *)

val swap_bytes : int -> int
(** Exchange high and low byte of a 16-bit value. *)

val sign_extend_byte : int -> int
(** Sign-extend bits 7..0 into a 16-bit value (SXT). *)

val low_byte : int -> int
val high_byte : int -> int
