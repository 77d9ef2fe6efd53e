(** The four memory-isolation methods compared in the paper. *)

type mode =
  | No_isolation
      (** baseline: full C, no checks, MPU off *)
  | Feature_limited
      (** the original Amulet approach: no pointers, no recursion;
          run-time array-index bounds checks through a runtime helper *)
  | Software_only
      (** full C; compiler inserts lower {e and} upper bound checks on
          every pointer dereference; MPU off *)
  | Mpu_assisted
      (** the paper's contribution: full C; compiler inserts only the
          lower bound check, the MPU enforces the upper bound; MPU
          reconfigured on context switches *)

val name : mode -> string
val of_string : string -> mode option
val all : mode list

val allows_pointers : mode -> bool
val allows_recursion : mode -> bool

val checks_lower_bound : mode -> bool
(** Compiler inserts an [addr >= region_lo] check on dereferences. *)

val checks_upper_bound : mode -> bool
(** Compiler inserts an [addr < region_hi] check on dereferences. *)

val uses_mpu : mode -> bool
val separate_stacks : mode -> bool
(** Software-only and MPU modes give each app its own stack segment;
    No-isolation and Feature-limited share the single Amulet stack. *)

(* Symbol-naming conventions shared by the compiler, the AFT and the
   linker.  The bounds constants are the linker-generated
   [<section>__start] / [<section>__end] symbols of the app's code and
   data sections: AFT phase 2 emits checks against these symbols
   ("placeholder values"), and link-time resolution is phase 4's
   "patch with the correct app boundaries".  The MPU borders of the
   AFT's stubs resolve from the same data-section symbols, and their
   stack tops from {!stack_top_sym}, patched the same way. *)

val mangle : prefix:string -> string -> string
val code_section : prefix:string -> string
val data_section : prefix:string -> string
val code_lo_sym : prefix:string -> string
val code_hi_sym : prefix:string -> string
val data_lo_sym : prefix:string -> string
val data_hi_sym : prefix:string -> string

val stack_top_sym : prefix:string -> string
(** Zero-size label at the top of the app's stack area (the base of
    its globals, rounded down to even).  Emitted by the AFT layout and
    the test harness; the app's trampoline loads SP from it, and
    binary-level analyses recover the stack region
    [\[data_lo, stack_top)] from the link map alone. *)

(** Software-fault reason codes written to the fault port. *)

val fault_data_lo : int
val fault_data_hi : int
val fault_code_ptr : int
val fault_ret_addr : int
val fault_array_bounds : int
val fault_shadow_stack : int

(** Shadow return-address stack support (the paper's "future
    revisions" use of the InfoMem, implemented here as an optional
    hardening that any isolation mode can enable).  The shadow stack
    pointer lives at {!shadow_sp_addr}; entries grow upward from
    {!shadow_base}.  Stray data pointers cannot reach it: InfoMem lies
    below every app's data segment, so the lower-bound check rejects
    it, and stack overflows cannot walk into it either. *)

val shadow_sp_addr : int
val shadow_base : int

val guard_start_suffix : string
val guard_end_suffix : string
(** Every compiler-inserted guard sequence (bounds checks, return
    checks, shadow-stack pushes) is bracketed by a label pair whose
    names end in these suffixes.  The labels are zero-size, so they
    change no addresses or cycle counts; profilers recover the guard
    address ranges from the image symbol table by pairing
    [<x>$gs]/[<x>$ge]. *)

val fault_stub_label : prefix:string -> int -> string
(** Label of the per-app fault stub for a reason code. *)
