(** Gate-argument provenance: proves, per OS-gate call site, that a
    pointer argument can only point into the app's own D_i region, so
    the kernel may elide its dynamic [with_range] validation for the
    certified services.

    Pointers with link-time-constant values (globals, string literals)
    certify against the data-section bound symbols; frame-relative
    pointers (locals) additionally need {!Stackcert}'s entry-depth
    bound on the enclosing function's FP, which exists only in
    separate-stack modes.  Everything else stays uncertified and keeps
    the dynamic check. *)

type value = Top | Iv of int * int | Fp of int * int
(** Abstract register value: unknown; an unsigned 16-bit interval; or
    FP plus a signed displacement interval. *)

type site = {
  gs_fn : string;  (** mangled name of the enclosing function *)
  gs_addr : int;  (** address of the CALL #__gate_* instruction *)
  gs_service : string;
  gs_certified : bool;
  gs_reason : string;
}

type t = {
  gt_sites : site list;
      (** every gate call site whose service takes a pointer *)
  gt_certified : string list;
      (** services every one of whose pointer-carrying call sites is
          certified (and that have at least one such site) *)
}

val analyze : cfg:Cfi.t -> stack:Stackcert.t -> t
(** Certifies against the data-section bounds and stack top of the
    CFG's {!Section}. *)

val pp_site : Format.formatter -> site -> unit
