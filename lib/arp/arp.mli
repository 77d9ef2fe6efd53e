(** The Amulet Resource Profiler (ARP) and ARP-view pipeline.

    The paper's ARP counts memory accesses and context switches per
    state/transition, combines them with developer-declared event
    rates, and extrapolates weekly cycle counts and energy.  This
    implementation measures each handler by running it in the kernel
    on the simulated MCU (warm-up period, then per-event averages from
    the warm-up's dispatch records, {!Amulet_os.Kernel.handler_stats})
    and reads the event rates directly from the app's own
    subscriptions and timers — the same extrapolation with measured
    rather than hand-annotated inputs.

    It also exposes the static enumeration of AFT phase 1 (checked and
    statically-verified access sites per function) for the report. *)

type handler_profile = {
  hp_handler : string;
  hp_events_per_week : float;
  hp_cycles_per_event : float;
  hp_accesses_per_event : float;
  hp_api_calls_per_event : float;
}

type app_profile = {
  ap_app : string;
  ap_mode : Amulet_cc.Isolation.mode;
  ap_handlers : handler_profile list;
  ap_cycles_per_week : float;  (** all handler cycles, extrapolated *)
}

val profile_app :
  ?scenario:Amulet_os.Sensors.scenario ->
  ?warmup_ms:int ->
  ?obs:Amulet_obs.Obs.t ->
  mode:Amulet_cc.Isolation.mode ->
  Amulet_apps.Suite.app ->
  app_profile
(** Build a single-app firmware, run the app for the warm-up window
    (default 90 virtual seconds, enough for every app
    timer to fire), and extrapolate to a week.  With [obs], the
    kernel run streams dispatch spans into the context, so callers
    can derive further views (e.g. per-state accounting) from the
    trace records instead of re-running the app.
    @raise Failure if the app faults while being profiled. *)

val overhead_cycles_per_week :
  baseline:app_profile -> app_profile -> float
(** Isolation overhead = profiled week minus the no-isolation week. *)

(** Static (phase-1) counts per function, from the compiler (with the
    range analysis enabled, so guards it elides are visible). *)
type static_sites = {
  ss_function : string;
  ss_checked : int;
  ss_elided : int;
  ss_static : int;
  ss_api_calls : int;
}

val static_view :
  mode:Amulet_cc.Isolation.mode ->
  Amulet_apps.Suite.app ->
  static_sites list
