(** The statistical gateheavy benchmark: the measurement core behind
    [bin/amulet_bench] and [bench/main.exe]'s snapshot mode.

    Per isolation mode it drives the gateheavy app's button handler
    back-to-back under the full kernel with an {!Amulet_obs.Agg} sink
    and the cycle profiler armed, measuring host throughput over N
    independent trials after a warmup, and collecting dispatch-latency
    and handler-duration histograms plus the per-PC-class cycle split
    that yields cycle-exact energy attribution. *)

module Iso := Amulet_cc.Isolation
module Hist := Amulet_obs.Hist

type mode_run = {
  mr_mode : Iso.mode;
  mr_rates : float array;  (** cycles/sec, one per trial *)
  mr_trial_cycles : int array;  (** simulated cycles per trial *)
  mr_latency : Hist.t;  (** dispatch-latency cycles *)
  mr_handler : Hist.t;  (** handler span durations *)
  mr_class_cycles : (string * int) list;
      (** profiler-class slug (plus [host_services]) -> cycles over
          the measured window *)
  mr_measured_dispatches : int;  (** trials × dispatches *)
}

val run_mode :
  ?warmup:int -> trials:int -> dispatches:int -> Iso.mode -> mode_run

val run_mode_hooks_off :
  ?warmup:int -> trials:int -> dispatches:int -> Iso.mode -> mode_run
(** Same workload with no observability attached: the interpreter
    runs with no watcher and no step hook.  Simulated cycles are
    byte-identical to {!run_mode} (asserted by {!run}); only the host
    throughput differs.  Latency/handler histograms are empty and the
    class breakdown absent — there is no profiler to fill them. *)

val hooks_off_suffix : string
(** ["+hooks-off"], appended to the mode name in snapshot rows. *)

val host_meta : unit -> (string * string) list
(** OCaml version, OS, word size, hostname when known. *)

val run :
  ?modes:Iso.mode list ->
  ?trials:int ->
  ?dispatches:int ->
  ?warmup:int ->
  ?gate_runs:int ->
  quick:bool ->
  unit ->
  Schema.doc * mode_run list
(** Full run: every mode armed, every mode hooks-off (with the
    simulated-cycle identity between the two asserted), plus the
    deterministic gate costs (context-switch cycles and the
    gate-certification ablation).  Unspecified parameters default per
    [quick]: quick = 3 trials × 300 dispatches, full = 5 × 1500. *)

val run_speedup :
  ?modes:Iso.mode list ->
  ?trials:int ->
  ?dispatches:int ->
  ?warmup:int ->
  quick:bool ->
  unit ->
  Schema.doc * mode_run list
(** Hooks-off rows only (default: no-isolation), for the CI speedup
    floor — no profiler, no gate ablations, so it is cheap enough to
    run on every push. *)

val pp_doc : Format.formatter -> Schema.doc -> unit
(** Human-readable per-mode table (throughput median ± MAD,
    cycles/dispatch, latency p50/p99, energy per dispatch) and the
    gate costs. *)
