(** The fleet scenario DSL: a small line-oriented text format
    describing a population of simulated wearables and the event
    traffic that drives them.

    Grammar (one directive per line, [#] starts a comment, blank
    lines ignored):

    {v
    scenario <name>                      # identifier for reports
    devices  <int>                       # fleet size
    duration <int>[ms]                   # virtual run length per device
    seed     <int>                       # base seed (CLI may override)
    modes    <mode>=<weight> ...         # isolation-mode mix
    apps     <suite-app> ...             # loaded on every device
    sensors  resting|walking|running|daily_mix|fall@<ms>
    traffic  button|ble|tick rate=<ev/s, at most 1000> [burst=<n>]
    churn    <int>[ms]                   # re-deliver handle_init this often
    v}

    Every quantity is deterministic: device [i] of a scenario with
    base seed [s] derives its private seed with {!device_seed}
    (a splitmix64 finalizer over [s] and [i], the same generator the
    fault injector uses), picks its isolation mode by weighted
    round-robin over the [modes] mix ({!device_mode} — exact
    proportions, no sampling), and generates each [traffic] line's
    arrivals from its own rng stream.  Two runs of the same scenario
    and seed are therefore event-for-event identical, which is what
    lets the fleet service promise bit-identical aggregates. *)

type traffic_kind =
  | Button  (** user button presses, arg = button bitmap *)
  | Ble  (** BLE sync packets, delivered as [Button 2] with a
             packet-id argument (the closest host-visible event the
             kernel routes); [burst] models sync windows *)
  | Tick  (** coarse system ticks *)

type traffic = {
  tr_kind : traffic_kind;
  tr_rate : float;
      (** nominal arrivals per virtual second, in (0, 1000]: arrivals
          are whole milliseconds apart, so the parser rejects faster
          rates.  Gaps are uniform on [\[1, 2m\]] ms with
          [m = max 1 (floor (1000 / rate))], a mean of [m + 0.5] ms: the
          delivered rate runs below nominal (500/s delivers 400/s,
          1000/s delivers about 667/s). *)
  tr_burst : int;  (** events delivered per arrival, >= 1 *)
}

type t = {
  sc_name : string;
  sc_devices : int;
  sc_duration_ms : int;
  sc_seed : int;
  sc_modes : (Amulet_cc.Isolation.mode * int) list;
      (** weighted mix, in the order declared; weights > 0 *)
  sc_apps : string list;  (** validated against {!Amulet_apps.Suite} *)
  sc_sensors : Amulet_os.Sensors.scenario;
  sc_traffic : traffic list;
  sc_churn_ms : int option;
}

val default : t
(** One device, 1000 ms, all four modes at weight 1, pedometer,
    [Daily_mix], no traffic, no churn. *)

val parse : string -> (t, string) result
(** Parse scenario text; errors carry the offending line number. *)

val of_file : string -> (t, string) result

val override :
  ?devices:int -> ?duration_ms:int -> ?seed:int -> t -> (t, string) result
(** Replace the fleet size, duration or base seed as if the scenario
    text had ended with that directive, so an override passes the
    same checks ([devices] and [duration] >= 1) and fails with the
    same message as the file would. *)

val device_seed : seed:int -> index:int -> int
(** Per-device seed derivation: splitmix64 finalizer over
    [seed + (index+1) * golden], truncated to a non-negative OCaml
    int.  Documented so external tooling can reproduce any single
    device of a fleet run in isolation. *)

val device_mode : t -> index:int -> Amulet_cc.Isolation.mode
(** Weighted round-robin over [sc_modes]: with weights summing to
    [W], device [i] gets the mode owning slot [i mod W] — exact
    proportions for any fleet size that is a multiple of [W]. *)

val mode_devices : t -> (Amulet_cc.Isolation.mode * int) list
(** How many of [sc_devices] land on each mode of the mix. *)

val traffic_kind_name : traffic_kind -> string
val pp : Format.formatter -> t -> unit

(** Deterministic splitmix64 stream, shared by the traffic generator
    and the tests.  Deliberately not [Random]: schedules must be
    identical across OCaml versions and across domains. *)
module Rng : sig
  type rng

  val create : int -> rng
  val draw : rng -> int -> int
  (** [draw r bound] is uniform in [\[0, bound)]; [bound >= 1]. *)
end
