(** Binary-level worst-case stack bound over the CFI-reconstructed
    CFG, checked against the app's actual stack region from the link
    map ([data_lo, stack_top) of the CFG's {!Section}).  Replaces trust
    in the compiler's source-level estimate; the two bounds are
    cross-checked in tests. *)

type verdict =
  | Certified of { bound : int; region : int; chain : string list }
      (** [bound] includes the trampoline's pushes; [chain] is the
          maximizing call chain, root first *)
  | Rejected of { bound : int; region : int; chain : string list }
  | Unbounded of { chain : string list; fenced : bool }
      (** recursive cycle; [fenced] when the MPU's segment-1 fence
          turns the overflow into a fault instead of a corruption *)
  | Unanalyzable of { addr : int; reason : string }
  | Not_applicable  (** shared-stack modes have no per-app region *)

type t = {
  sc_verdict : verdict;
  sc_fn_depth : (string * int) list;
      (** per-function worst-case stack use below its entry SP *)
  sc_entry_max : (string * int) list;
      (** deepest possible entry depth below the dispatch stack top
          (trampoline included) — bounds each function's FP from
          below; used by the gate-provenance pass *)
}

val trampoline_bytes : int

val analyze : cfg:Cfi.t -> t
(** @raise Invalid_argument when a separate-stack image lacks the
    [stack_top] symbol for the app. *)

val entry_max_of : t -> string -> int option
val pp_verdict : Format.formatter -> verdict -> unit
