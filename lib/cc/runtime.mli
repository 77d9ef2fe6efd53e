(** Compiler runtime support routines.

    These live in the OS code region (segment 1: executable by apps)
    and follow a scratch-register convention: arguments and results in
    R12/R13, R14/R15 clobbered, R4-R11 untouched — so the code
    generator may keep expression temporaries live across helper
    calls.

    Includes [__bounds_check] (index in R14, limit in R15), the
    Feature-Limited array check of the original Amulet toolchain: on
    violation it writes {!Isolation.fault_array_bounds} to the
    software-fault port. *)

val items : Amulet_link.Asm.item list
(** Assembly for all helpers: [__mulhi], [__udivhi], [__umodhi],
    [__divhi], [__modhi], [__shlhi], [__shrhi], [__sarhi],
    [__bounds_check]. *)

val helpers : (string * int) list
(** [(label, stack bytes)] for every helper app code may call: the
    bytes one call occupies below the caller's SP, return address
    included. *)

(** Marker symbols bracketing helper ranges for cycle attribution:
    [\[rt_begin, rt_end)] covers all helpers (app work), the nested
    [\[bc_begin, bc_end)] covers [__bounds_check] (guard work). *)

val rt_begin : string
val rt_end : string
val bc_begin : string
val bc_end : string

val loop_bounds : (string * int) list
(** [(header label, max body executions)] for every helper loop — the
    AFT stamps these into the image as [wcet.loop.<label>] notes so
    the binary WCET analysis can bound helper calls.  The
    [__bounds_check] failure spin is absent deliberately: its first
    instruction writes the software-fault port, which stops the
    machine. *)

val builtin_externals : (string * Ctype.t) list
(** Type signatures of the compiler builtins ([__halt], [__putc],
    [__timer_start], [__timer_read]) for the type checker. *)
