(* Metric values from what a run measured: end-to-end figures from the
   untraced iterations, per-layer figures from the traced run's spans
   and counters.  Each function returns exactly the names declared in
   {!Metrics}, in the same order. *)

module W = Workloads
module Mx = Metrics
module Hist = Amulet_obs.Hist

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Host figures come from the fastest iteration.  Every iteration of a
   run does the same work, and on a shared machine interference only
   ever adds time, so the minimum is the steadiest estimate of what the
   code costs; medians moved by a quarter between runs minutes apart. *)
let end_to_end ~setup_s ~heap_mb ~accuracy (samples : W.sample list) =
  let best =
    List.fold_left
      (fun b (s : W.sample) -> if s.W.wall_s < b.W.wall_s then s else b)
      (List.hd samples) samples
  in
  let rate n = float_of_int n /. best.W.wall_s in
  [
    ("setup_s", setup_s);
    ("devices_per_s", rate best.W.devices);
    ("dispatches_per_s", rate best.W.dispatches);
    ("sim_cycles_per_s", rate best.W.sim_cycles);
    ("cells_per_s", rate best.W.cells);
    ("sim_cycles_per_dispatch", Hist.mean best.W.dispatch);
    ("dispatch_p99_cycles", float_of_int (Hist.quantile best.W.dispatch 0.99));
    ("heap_peak_mb", heap_mb);
  ]
  @ accuracy

(* Span durations (ns) of every traced iteration, by span name, plus
   the derived cell self time. *)
let absorb acc spans =
  let add name v =
    Hashtbl.replace acc name (v :: Option.value ~default:[] (Hashtbl.find_opt acc name))
  in
  let by_group = Hashtbl.create 256 in
  List.iter
    (fun s ->
      add s.Span.name (Span.dur_ns s);
      Hashtbl.replace by_group (s.Span.name, s.Span.group) (Span.dur_ns s))
    spans;
  List.iter
    (fun s ->
      if s.Span.name = "campaign.cell" then
        let d n = Option.value ~default:0.0 (Hashtbl.find_opt by_group (n, s.Span.group)) in
        add "campaign.cell_self" (Span.dur_ns s -. d "aft.build" -. d "lint.run"))
    spans

let per_layer acc (ctr : W.counters) ~overhead =
  let get name = Option.value ~default:[] (Hashtbl.find_opt acc name) in
  let q scale name p = Mx.quantile p (get name) /. scale in
  let us = q 1e3 and ms = q 1e6 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    ("kernel.create_us", us "kernel.create" 0.5);
    ("oracle.probe_us", us "oracle.probe" 0.5);
    ("kernel.dispatch_us_p50", us "kernel.dispatch" 0.5);
    ("kernel.dispatch_us_p99", us "kernel.dispatch" 0.99);
    ("kernel.minor_words_per_dispatch", ratio ctr.W.minor_words ctr.W.dispatch_calls);
    ("kernel.no_handler_ratio", ratio ctr.W.no_handler ctr.W.dispatch_calls);
    ("kernel.latency_p99_cycles", float_of_int (Hist.quantile ctr.W.latency 0.99));
    ("mcu.blocks_cached_per_device", ratio ctr.W.blocks ctr.W.booted);
  ]
  @ List.mapi
      (fun i m ->
        ( Printf.sprintf "interp.%s.sim_cycles_per_s" (Amulet_cc.Isolation.name m),
          if ctr.W.mode_ns.(i) = 0.0 then 0.0
          else float_of_int ctr.W.mode_cycles.(i) /. (ctr.W.mode_ns.(i) /. 1e9) ))
      Amulet_cc.Isolation.all
  @ [
      ("mpu.config_writes_per_dispatch", ratio ctr.W.mpu_writes ctr.W.handled);
      ("api.calls_per_dispatch", ratio ctr.W.api_calls ctr.W.handled);
      ("fleet.shard_record_us", us "fleet.shard_record" 0.5);
      ("fleet.shard_merge_us", us "fleet.shard_merge" 0.5);
      ("cc.compile_ms", ms "cc.compile" 0.5);
      ("aft.build_ms", ms "aft.build" 0.5);
      ("lint.run_ms", ms "lint.run" 0.5);
      ("wcet.analyze_ms", ms "wcet.analyze" 0.5);
      ("campaign.cell_ms_p50", ms "campaign.cell" 0.5);
      ("campaign.cell_ms_p99", ms "campaign.cell" 0.99);
      ("campaign.cell_self_ms", ms "campaign.cell_self" 0.5);
      ("campaign.injection_ms", ms "campaign.injection" 0.5);
      ("proof.obligations_ms", ms "proof.obligations" 0.5);
      ("proof.crosscheck_ms", ms "proof.crosscheck" 0.5);
      ("trace.overhead_ratio", overhead);
    ]
