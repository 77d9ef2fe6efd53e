(** One app section's link-map facts, read from the image once for the
    certifier's passes: the SFI verifier, CFI and, through the CFG, the
    stack bound, gate provenance and WCET. *)

type span_kind =
  | Function  (** [<prefix>$name], no further [$] *)
  | Exit_stub  (** [<prefix>$$exit] or [__exit_<prefix>] *)
  | Fault_stub  (** a [<prefix>$$fault] label *)

type t = private {
  prefix : string;
  code_lo : int;  (** [<prefix>_code__start] *)
  code_hi : int;
  data_lo : int;
  data_hi : int;
  stack_top : int option;  (** [<prefix>$$stack_top], word-aligned *)
  bounds_check : int option;  (** [__bounds_check], when linked *)
  spans : (int * string * span_kind) list;
      (** the span entries in [\[code_lo, code_hi)], by address, then
          name.  Control enters an app only at a function or exit stub. *)
  externals : (int, string) Hashtbl.t;  (** {!Amulet_cc.Apis.externals} *)
  fetch : int -> int;
      (** {!Amulet_link.Image.make_fetch}: every word of the image *)
}

val make : Amulet_link.Image.t -> prefix:string -> t
(** @raise Invalid_argument when the image lacks a section bound. *)
