module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module M = Amulet_mcu.Machine
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Obs = Amulet_obs.Obs
module Agg = Amulet_obs.Agg
module Hist = Amulet_obs.Hist
module Profile = Amulet_obs.Profile
module Energy = Amulet_arp.Energy
module Ex = Amulet_iso.Experiments

type mode_run = {
  mr_mode : Iso.mode;
  mr_rates : float array;
  mr_trial_cycles : int array;
  mr_latency : Hist.t;
  mr_handler : Hist.t;
  mr_class_cycles : (string * int) list;
  mr_measured_dispatches : int;
}

let host_services_slug = "host_services"
let hooks_off_suffix = "+hooks-off"

let run_mode ?(warmup = 100) ~trials ~dispatches mode =
  let fw = Aft.build ~mode [ Apps.spec_for mode Apps.gateheavy ] in
  let obs = Obs.create () in
  let agg = Agg.create () in
  Obs.add_sink obs (Agg.sink agg);
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 5 in
  let m = k.Os.Kernel.machine in
  (* gateheavy is event-driven: run_for_ms alone would idle, so the
     dispatch loop is driven explicitly, as the schema-1 snapshot did *)
  let post_button () =
    Os.Kernel.post k ~delay_ms:0 ~app:0 (Os.Event.Button 1) ~arg:1
  in
  let dispatch_once () =
    post_button ();
    ignore (Os.Kernel.dispatch_next k)
  in
  (* keep a standing backlog so each event waits behind a few earlier
     handlers: dispatch latency is then the real (mode-dependent)
     queueing delay instead of the degenerate 0 of post-then-pop *)
  for _ = 1 to 4 do
    post_button ()
  done;
  for _ = 1 to warmup do
    dispatch_once ()
  done;
  let p =
    match Obs.profile obs with Some p -> p | None -> assert false
  in
  let cats0 = Profile.totals p in
  let host0 = m.M.extra_cycles in
  let rates = Array.make trials 0.0 in
  let trial_cycles = Array.make trials 0 in
  for t = 0 to trials - 1 do
    let c0 = M.cycles m in
    let t0 = Sys.time () in
    for _ = 1 to dispatches do
      dispatch_once ()
    done;
    let host_s = max (Sys.time () -. t0) 1e-9 in
    let cyc = M.cycles m - c0 in
    rates.(t) <- float_of_int cyc /. host_s;
    trial_cycles.(t) <- cyc
  done;
  let class_cycles =
    List.map2
      (fun (c, before) (c', after) ->
        assert (c = c');
        (Profile.category_slug c, after - before))
      cats0 (Profile.totals p)
    @ [ (host_services_slug, m.M.extra_cycles - host0) ]
  in
  Obs.close obs;
  {
    mr_mode = mode;
    mr_rates = rates;
    mr_trial_cycles = trial_cycles;
    mr_latency =
      (match Agg.counter agg "dispatch_latency_cycles" with
      | Some c -> c.Agg.c_hist
      | None -> Hist.create ());
    mr_handler =
      Option.value ~default:(Hist.create ())
        (Agg.span_hist agg ~cat:"dispatch" ~name:"handle_button");
    mr_class_cycles = class_cycles;
    mr_measured_dispatches = trials * dispatches;
  }

(* Same workload with no observability attached: no watcher sees an
   event and no trace record is built.  Simulated cycles per trial must
   be byte-identical to the armed run — [run] asserts it — so the only
   thing these rows add is the host-side throughput of an unobserved
   interpreter. *)
let run_mode_hooks_off ?(warmup = 100) ~trials ~dispatches mode =
  let fw = Aft.build ~mode [ Apps.spec_for mode Apps.gateheavy ] in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let _ = Os.Kernel.run_for_ms k 5 in
  let m = k.Os.Kernel.machine in
  let post_button () =
    Os.Kernel.post k ~delay_ms:0 ~app:0 (Os.Event.Button 1) ~arg:1
  in
  let dispatch_once () =
    post_button ();
    ignore (Os.Kernel.dispatch_next k)
  in
  for _ = 1 to 4 do
    post_button ()
  done;
  for _ = 1 to warmup do
    dispatch_once ()
  done;
  let rates = Array.make trials 0.0 in
  let trial_cycles = Array.make trials 0 in
  for t = 0 to trials - 1 do
    let c0 = M.cycles m in
    let t0 = Sys.time () in
    for _ = 1 to dispatches do
      dispatch_once ()
    done;
    let host_s = max (Sys.time () -. t0) 1e-9 in
    let cyc = M.cycles m - c0 in
    rates.(t) <- float_of_int cyc /. host_s;
    trial_cycles.(t) <- cyc
  done;
  {
    mr_mode = mode;
    mr_rates = rates;
    mr_trial_cycles = trial_cycles;
    mr_latency = Hist.create ();
    mr_handler = Hist.create ();
    mr_class_cycles = [];
    mr_measured_dispatches = trials * dispatches;
  }

let host_meta () =
  List.concat
    [
      [
        ("ocaml", Sys.ocaml_version);
        ("os", Sys.os_type);
        ("word_size", string_of_int Sys.word_size);
      ];
      (match Sys.getenv_opt "HOSTNAME" with
      | Some h -> [ ("hostname", h) ]
      | None -> []);
    ]

let cycles_per_dispatch (r : mode_run) =
  if r.mr_measured_dispatches = 0 then 0.0
  else
    Stats.median (Array.map float_of_int r.mr_trial_cycles)
    *. float_of_int (Array.length r.mr_trial_cycles)
    /. float_of_int r.mr_measured_dispatches

let mode_row (r : mode_run) =
  let total_cycles =
    List.fold_left (fun acc (_, c) -> acc + c) 0 r.mr_class_cycles
  in
  {
    Schema.m_mode = Iso.name r.mr_mode;
    m_rate =
      {
        Schema.r_summary = Stats.summarize r.mr_rates;
        r_trials = Array.to_list r.mr_rates;
      };
    m_cycles_per_dispatch = cycles_per_dispatch r;
    m_latency = Some r.mr_latency;
    m_handler = Some r.mr_handler;
    m_class_cycles = r.mr_class_cycles;
    m_energy_per_dispatch_j =
      (if r.mr_measured_dispatches = 0 then None
       else
         Some
           (Energy.joules_of_cycles total_cycles
            /. float_of_int r.mr_measured_dispatches));
  }

(* No profiler in a hooks-off run, so latency/handler histograms and
   the class breakdown are absent rather than empty-but-present. *)
let hooks_off_row (r : mode_run) =
  {
    Schema.m_mode = Iso.name r.mr_mode ^ hooks_off_suffix;
    m_rate =
      {
        Schema.r_summary = Stats.summarize r.mr_rates;
        r_trials = Array.to_list r.mr_rates;
      };
    m_cycles_per_dispatch = cycles_per_dispatch r;
    m_latency = None;
    m_handler = None;
    m_class_cycles = [];
    m_energy_per_dispatch_j = None;
  }

let gate_costs ~runs () =
  let t1 = Ex.table1 ~runs () in
  let cert = Ex.ablation_gate_cert ~runs () in
  {
    Schema.g_ctx_switch =
      List.map
        (fun (r : Ex.table1_row) -> (Iso.name r.Ex.t1_mode, r.Ex.t1_ctx_switch))
        t1;
    g_cert =
      List.map
        (fun (r : Ex.gate_cert_row) ->
          {
            Schema.c_mode = Iso.name r.Ex.gc_mode;
            c_dynamic = r.Ex.gc_dynamic;
            c_certified = r.Ex.gc_certified;
            c_per_gate = r.Ex.gc_per_gate;
            c_services = r.Ex.gc_services;
          })
        cert;
  }

(* The armed and hooks-off runs drive identical workloads, so their
   simulated cycle trajectories must agree exactly: observing the
   machine may change how fast the host gets there, never what the
   machine computes. *)
let assert_identity (armed : mode_run) (fast : mode_run) =
  if armed.mr_trial_cycles <> fast.mr_trial_cycles then
    failwith
      (Format.asprintf
         "observer identity violated (%s): armed trial cycles [%s] <> \
          hooks-off [%s]"
         (Iso.name armed.mr_mode)
         (String.concat ";"
            (List.map string_of_int (Array.to_list armed.mr_trial_cycles)))
         (String.concat ";"
            (List.map string_of_int (Array.to_list fast.mr_trial_cycles))))

let run ?(modes = Iso.all) ?trials ?dispatches ?warmup ?gate_runs ~quick () =
  let dflt q f = Option.value ~default:(if quick then q else f) in
  let trials = dflt 3 5 trials in
  let dispatches = dflt 300 1500 dispatches in
  let warmup = dflt 50 200 warmup in
  let gate_runs = dflt 10 50 gate_runs in
  let runs = List.map (run_mode ~warmup ~trials ~dispatches) modes in
  let fast = List.map (run_mode_hooks_off ~warmup ~trials ~dispatches) modes in
  List.iter2 assert_identity runs fast;
  let doc =
    {
      Schema.d_schema = 2;
      d_bench = "gateheavy";
      d_quick = quick;
      d_trials = trials;
      d_dispatches = dispatches;
      d_warmup = warmup;
      d_host = host_meta ();
      d_modes = List.map mode_row runs @ List.map hooks_off_row fast;
      d_gate = gate_costs ~runs:gate_runs ();
    }
  in
  (doc, runs)

(* Hooks-off only, for the CI speedup floor: cheap, no profiler, no
   gate-cost ablations. *)
let run_speedup ?(modes = [ Iso.No_isolation ]) ?trials ?dispatches ?warmup
    ~quick () =
  let dflt q f = Option.value ~default:(if quick then q else f) in
  let trials = dflt 3 5 trials in
  let dispatches = dflt 300 1500 dispatches in
  let warmup = dflt 50 200 warmup in
  let fast = List.map (run_mode_hooks_off ~warmup ~trials ~dispatches) modes in
  let doc =
    {
      Schema.d_schema = 2;
      d_bench = "gateheavy";
      d_quick = quick;
      d_trials = trials;
      d_dispatches = dispatches;
      d_warmup = warmup;
      d_host = host_meta ();
      d_modes = List.map hooks_off_row fast;
      d_gate = { Schema.g_ctx_switch = []; g_cert = [] };
    }
  in
  (doc, fast)

let pp_doc ppf (d : Schema.doc) =
  Format.fprintf ppf
    "%s: %d trials x %d dispatches per mode (warmup %d%s)@." d.d_bench
    d.d_trials d.d_dispatches d.d_warmup
    (if d.d_quick then ", quick" else "");
  Format.fprintf ppf "%-18s %16s %10s %12s %8s %8s %12s@." "Method"
    "cycles/sec" "+- MAD" "cyc/dispatch" "lat p50" "lat p99" "nJ/dispatch";
  List.iter
    (fun (m : Schema.mode_row) ->
      let q h f = match h with Some h -> Hist.quantile h f | None -> 0 in
      Format.fprintf ppf "%-18s %16.0f %10.0f %12.1f %8d %8d %12.1f@."
        m.Schema.m_mode m.Schema.m_rate.Schema.r_summary.Stats.median
        m.Schema.m_rate.Schema.r_summary.Stats.mad m.Schema.m_cycles_per_dispatch
        (q m.Schema.m_latency 0.5) (q m.Schema.m_latency 0.99)
        (match m.Schema.m_energy_per_dispatch_j with
        | Some j -> j *. 1e9
        | None -> 0.0))
    d.d_modes;
  if d.d_gate.Schema.g_ctx_switch <> [] then begin
    Format.fprintf ppf "context-switch cycles:";
    List.iter
      (fun (m, c) -> Format.fprintf ppf " %s=%.1f" m c)
      d.d_gate.Schema.g_ctx_switch;
    Format.fprintf ppf "@."
  end;
  List.iter
    (fun (c : Schema.cert_row) ->
      Format.fprintf ppf
        "%-18s gate handler %.0f cyc dynamic, %.0f certified (%.1f cyc/gate)@."
        c.Schema.c_mode c.Schema.c_dynamic c.Schema.c_certified
        c.Schema.c_per_gate)
    d.d_gate.Schema.g_cert
