(** The fleet service: N independent devices scheduled over domains
    with {!Sched}, folded into per-domain shard accumulators and
    merged losslessly into one aggregate summary.

    Determinism contract: the aggregate ({!summary_json}) is a pure
    function of (scenario, seed) — device results are schedule-
    independent ({!Device}), shards combine with associative and
    commutative merges ({!Amulet_obs.Hist.merge} plus exact integer
    sums), and {!run} asserts the merge is order-independent by
    folding the shards in both directions and comparing.  Host wall
    time and the jobs count are reported separately and never enter
    the aggregate. *)

type mode_agg = {
  ma_mode : Amulet_cc.Isolation.mode;
  ma_devices : int;
  ma_dispatches : int;
  ma_no_handler : int;
  ma_faults : int;
  ma_unrecovered : int;
  ma_api_calls : int;
  ma_cycles : int;  (** simulated cycles, summed exactly *)
  ma_dispatch : Amulet_obs.Hist.t;  (** cycles per dispatch *)
  ma_latency : Amulet_obs.Hist.t;  (** queue latency per dispatch *)
  ma_oracle_failures : int;  (** devices with a non-empty oracle verdict *)
}

(** One worker domain's accumulator. *)
type shard

val shard_empty : unit -> shard

val shard_record : shard -> Device.result -> unit
(** Fold one device in (mutates the shard; worker-local): its counts
    are summed and its histograms added into the shard's in place
    ({!Amulet_obs.Hist.add_into}). *)

val shard_merge : shard -> shard -> shard
(** Pure, associative, commutative and lossless — bucket-for-bucket
    the shard of the concatenated device streams.  The result shares
    no histogram with either argument, so recording into an argument
    later leaves it unchanged. *)

val shard_equal : shard -> shard -> bool
val shard_modes : shard -> mode_agg list
(** In {!Amulet_cc.Isolation.all} order; empty modes omitted. *)

val shard_violations : shard -> string list
(** Sorted; complete (each device contributes at most two entries). *)

type summary = {
  fs_scenario : Scenario.t;
  fs_seed : int;
  fs_jobs : int;
  fs_modes : mode_agg list;
  fs_devices : int;
  fs_dispatches : int;
  fs_oracle_failures : int;
  fs_violations : string list;
  fs_elapsed_s : float;  (** host wall clock; excluded from the JSON *)
}

val run :
  ?jobs:int ->
  ?progress:Sched.progress ->
  ?seed:int ->
  Scenario.t ->
  summary
(** Build one firmware per mode of the mix (shared read-only across
    domains), run every device through {!Sched.fold_shards}, merge
    and cross-check the shards.  Each worker boots a firmware on its
    first device of that mode ({!Amulet_os.Kernel.boot}) and starts
    every later one from that boot, so its predecoded blocks carry
    over; boots stay on their worker and end with the call.  [seed]
    defaults to the scenario's.  [jobs <= 0] means
    {!Sched.default_jobs}. *)

val ok : summary -> bool
(** Zero isolation-oracle violations. *)

val summary_json : summary -> Amulet_obs.Json.t
(** Deterministic aggregate: bit-identical across two runs of the
    same scenario+seed, whatever [jobs] was.  Includes per-mode
    p50/p99 dispatch and latency cycles, faults and cycles per
    device-second, and energy via {!Amulet_arp.Energy}. *)

val pp : Format.formatter -> summary -> unit
(** Console table plus host throughput (devices/sec, simulated
    cycles/sec) and the oracle verdict. *)
