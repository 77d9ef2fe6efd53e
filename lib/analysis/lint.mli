(** Whole-image static certifier: runs the SFI verifier, CFI
    reconstruction, the binary stack bound ({!Stackcert}),
    gate-argument provenance ({!Gate_taint}) and the WCET bound
    ({!Wcet}) over every app section of a linked firmware, adds the
    mode's proof obligations ({!proof_diags}), and folds the outcomes
    into one diagnostic report.  [amulet lint] renders it; the AFT
    consumes {!certified_gates} to stamp certification notes into the
    image. *)

type severity = Note | Warn | Error

type diag = {
  d_app : string;  (** "" for image-level diagnostics *)
  d_pass : string;
      (** "image" | "sfi" | "cfi" | "stackcert" | "gates" | "wcet"
          | "proof" *)
  d_severity : severity;
  d_addr : int option;
  d_message : string;
}

type app_report = {
  r_app : string;
  r_sfi : (Verifier.stats, Verifier.violation list) result;
  r_cfi : (Cfi.t, Cfi.violation list) result;
  r_stack : Stackcert.verdict option;  (** [None] when CFI failed *)
  r_gates : Gate_taint.t option;
  r_certified : string list;
      (** services whose dynamic gate-pointer validation is provably
          redundant for this app (requires the CFI proof and a mode
          that keeps app code immutable) *)
  r_wcet : Wcet.t option;  (** [None] when CFI failed *)
}

type report = {
  l_mode : Amulet_cc.Isolation.mode;
  l_apps : app_report list;
  l_diags : diag list;
  l_errors : int;
  l_warnings : int;
}

val apps_of : Amulet_link.Image.t -> string list
(** App prefixes in the image, in address order, from the linker's
    [<prefix>_code__start] symbols (the OS section excluded). *)

val proof_diags : Amulet_cc.Isolation.mode -> diag list
(** The mode's write-containment obligations ({!Amulet_proof.Obligations}),
    one image-level ["proof"] diagnostic each: a note when the
    obligation meets its documented expectation, an error otherwise.
    They depend on the mode alone, not on any image. *)

val run_with :
  proofs:diag list ->
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  apps:string list ->
  report
(** The report with [proofs] (the mode's {!proof_diags}, computed once
    by a caller that lints many images) appended after the per-app
    diagnostics.  An empty [apps] list yields a single image-level
    error diagnostic instead (a firmware with nothing to certify must
    not pass vacuously). *)

val run :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  apps:string list ->
  report
(** [run_with ~proofs:(proof_diags mode)]. *)

val certified_gates :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  string list
(** [r_certified] of the app's report, from CFI, {!Stackcert} and
    {!Gate_taint} alone: nothing under [No_isolation], nothing when
    CFI fails. *)

val severity_name : severity -> string
val pp_diag : Format.formatter -> diag -> unit
