(* The three benchmark workloads, driven through the layers' public
   entry points only.

   Each workload has a set-up step, an untraced iteration (what the
   end-to-end metrics time) and a traced iteration that repeats the
   same work one layer call at a time inside {!Span}s, so host time can
   be attributed to layers without touching their sources.  Every
   iteration checks its own outputs and counts what it attempted and
   what failed. *)

module Iso = Amulet_cc.Isolation
module Driver = Amulet_cc.Driver
module Aft = Amulet_aft.Aft
module Suite = Amulet_apps.Suite
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module Event_queue = Amulet_os.Event_queue
module Sensors = Amulet_os.Sensors
module M = Amulet_mcu.Machine
module Mpu = Amulet_mcu.Mpu
module Hist = Amulet_obs.Hist
module Json = Amulet_obs.Json
module Scenario = Amulet_fleet_core.Scenario
module Device = Amulet_fleet_core.Device
module Fleet = Amulet_fleet_core.Fleet
module Campaign = Amulet_sec.Campaign
module Attacks = Amulet_sec.Attacks
module Proofcheck = Amulet_sec.Proofcheck
module Ob = Amulet_proof.Obligations
module Replay = Amulet_proof.Replay
module Lint = Amulet_analysis.Lint
module Cfi = Amulet_analysis.Cfi
module Wcet = Amulet_analysis.Wcet
module Range = Amulet_analysis.Range
module Ex = Amulet_iso.Experiments
module Paper = Amulet_iso.Paper

type workload = Fleet_steady | Gateheavy | Campaign_matrix

let all =
  [ ("fleet_steady", Fleet_steady); ("gateheavy", Gateheavy); ("campaign", Campaign_matrix) ]

let name w = fst (List.find (fun (_, w') -> w' = w) all)

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let account t ~attempted ~failed what =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 && List.length t.problems < 20 then
    t.problems <- Printf.sprintf "%s: %d of %d failed" what failed attempted :: t.problems

(* One untraced iteration, as the end-to-end metrics see it. *)
type sample = {
  wall_s : float;
  devices : int;  (** kernels booted and run to the end of their work *)
  cells : int;  (** independent simulation units finished *)
  dispatches : int;  (** handler dispatches (No_handler excluded) *)
  sim_cycles : int;
  dispatch : Hist.t;  (** simulated cycles per handler dispatch *)
}

(* Layer counters of the traced run, taken at the same boundaries as
   the spans. *)
type counters = {
  mutable dispatch_calls : int;
  mutable no_handler : int;
  mutable handled : int;
  mutable minor_words : int;
  mutable mpu_writes : int;
  mutable api_calls : int;
  mutable blocks : int;
  mutable booted : int;
  latency : Hist.t;
  mode_cycles : int array;  (** Iso.all order *)
  mode_ns : float array;
}

let counters () =
  let n = List.length Iso.all in
  {
    dispatch_calls = 0; no_handler = 0; handled = 0; minor_words = 0;
    mpu_writes = 0; api_calls = 0; blocks = 0; booted = 0;
    latency = Hist.create ();
    mode_cycles = Array.make n 0;
    mode_ns = Array.make n 0.0;
  }

let mode_index m =
  let rec go i = function
    | [] -> invalid_arg "mode_index"
    | x :: tl -> if x = m then i else go (i + 1) tl
  in
  go 0 Iso.all

let span tr ~name ~group f =
  match tr with None -> f () | Some t -> Span.with_ t ~name ~group f

(* One [Kernel.dispatch_next] inside a span, with the allocation and
   MPU-configuration deltas counted around exactly that call. *)
let traced_dispatch tr ctr ~group ~mode k =
  let mpu = k.Kernel.machine.M.mpu in
  let gen0 = Mpu.gen mpu in
  let id = Span.enter tr ~name:"kernel.dispatch" ~group in
  let w0 = Gc.minor_words () in
  let r = Kernel.dispatch_next k in
  let w1 = Gc.minor_words () in
  let ns = Int64.to_float (Span.leave tr id) in
  ctr.dispatch_calls <- ctr.dispatch_calls + 1;
  ctr.minor_words <- ctr.minor_words + int_of_float (w1 -. w0);
  ctr.mpu_writes <- ctr.mpu_writes + (Mpu.gen mpu - gen0);
  (match r with
  | Some { Kernel.dr_outcome = Kernel.No_handler; _ } ->
    ctr.no_handler <- ctr.no_handler + 1
  | Some r ->
    let i = mode_index mode in
    ctr.handled <- ctr.handled + 1;
    ctr.api_calls <- ctr.api_calls + r.Kernel.dr_api_calls;
    ctr.mode_cycles.(i) <- ctr.mode_cycles.(i) + r.Kernel.dr_cycles;
    ctr.mode_ns.(i) <- ctr.mode_ns.(i) +. ns;
    Hist.record ctr.latency r.Kernel.dr_latency
  | None -> ());
  r

(* The compiler front half of [Aft.build], called on its own so its
   share of a firmware build can be timed. *)
let compile ~mode (s : Aft.app_spec) =
  ignore
    (Driver.compile ~prefix:s.Aft.name ~mode ~analyze:Range.analyze
       ~loop_bounds:Range.loop_bounds s.Aft.source)

(* ------------------------------------------------------------------ *)
(* Set-up shared by every workload: the model's error against the      *)
(* paper's Table 1                                                     *)

let accuracy () =
  List.concat_map
    (fun (r : Ex.table1_row) ->
      let err measured op =
        let paper = float_of_int (Paper.table1 r.Ex.t1_mode op) in
        Float.abs (measured -. paper) /. paper *. 100.0
      in
      let m = Iso.name r.Ex.t1_mode in
      [
        ( Printf.sprintf "accuracy.table1.%s.ctx_switch_err_pct" m,
          err r.Ex.t1_ctx_switch Paper.Context_switch );
        ( Printf.sprintf "accuracy.table1.%s.mem_access_err_pct" m,
          err r.Ex.t1_mem_access Paper.Memory_access );
      ])
    (Ex.table1 ())

(* ------------------------------------------------------------------ *)
(* fleet_steady                                                        *)

let scenario_path = "examples/scenarios/steady_day.fleet"

let fleet_scenario () =
  match Scenario.of_file scenario_path with
  | Ok sc -> sc
  | Error e -> failwith (scenario_path ^ ": " ^ e)

(* Every event one device is posted before its run, in posting order:
   each traffic line from its own stream, then the churn re-inits.
   Mirrors [Device.run], which the traced replay must reproduce
   exactly. *)
let device_events (sc : Scenario.t) ~napps ~dseed =
  let duration_ms = sc.Scenario.sc_duration_ms in
  let traffic ti (tr : Scenario.traffic) =
    let rng = Scenario.Rng.create (dseed lxor ((ti + 1) * 0x9E3779B9)) in
    let mean_ms = max 1 (int_of_float (1000.0 /. tr.Scenario.tr_rate)) in
    let rec go t acc =
      let t = t + 1 + Scenario.Rng.draw rng (2 * mean_ms) in
      if t >= duration_ms then acc
      else
        let acc = ref acc in
        for _ = 1 to tr.Scenario.tr_burst do
          let app = Scenario.Rng.draw rng napps in
          let ev =
            match tr.Scenario.tr_kind with
            | Scenario.Button -> (t, app, Event.Button 1, 1)
            | Scenario.Ble -> (t, app, Event.Button 2, Scenario.Rng.draw rng 256)
            | Scenario.Tick -> (t, app, Event.Tick, 0)
          in
          acc := ev :: !acc
        done;
        go t !acc
    in
    List.rev (go 0 [])
  in
  let churn =
    match sc.Scenario.sc_churn_ms with
    | None -> []
    | Some every ->
      let rec go t acc =
        if t >= duration_ms then List.rev acc
        else go (t + every) (List.rev_append (List.init napps (fun a -> (t, a, Event.Init, 0))) acc)
      in
      go every []
  in
  List.concat (List.mapi traffic sc.Scenario.sc_traffic) @ churn

let fleet_firmwares ?tr (sc : Scenario.t) =
  List.map
    (fun (mode, _) ->
      let specs =
        List.map (fun n -> Suite.spec_for mode (Suite.find n)) sc.Scenario.sc_apps
      in
      let group = mode_index mode in
      if Option.is_some tr then
        List.iter (fun s -> span tr ~name:"cc.compile" ~group (fun () -> compile ~mode s)) specs;
      (mode, span tr ~name:"aft.build" ~group (fun () -> Aft.build ~mode specs)))
    (Scenario.mode_devices sc)

let fleet_sample (s : Fleet.summary) ~wall_s =
  {
    wall_s;
    devices = s.Fleet.fs_devices;
    cells = s.Fleet.fs_devices;
    dispatches = s.Fleet.fs_dispatches;
    sim_cycles = List.fold_left (fun a m -> a + m.Fleet.ma_cycles) 0 s.Fleet.fs_modes;
    dispatch =
      List.fold_left (fun h m -> Hist.merge h m.Fleet.ma_dispatch) (Hist.create ()) s.Fleet.fs_modes;
  }

let fleet_check tally (s : Fleet.summary) ~reference =
  let json = Json.to_string (Fleet.summary_json s) in
  account tally ~attempted:s.Fleet.fs_devices ~failed:s.Fleet.fs_oracle_failures
    "fleet isolation oracle";
  let same = match reference with None -> true | Some r -> r = json in
  account tally ~attempted:1 ~failed:(if same then 0 else 1)
    "fleet aggregate identical to the first run of this seed";
  json

let fleet_run sc ~seed =
  let t0 = Span.now_s () in
  let s = Fleet.run ~jobs:1 ~seed sc in
  (s, fleet_sample s ~wall_s:(Span.now_s () -. t0))

(* One device, replayed call by call: what [Device.run] does, with
   [Kernel.run_for_ms] unrolled into single dispatches. *)
let replay_device tr ctr ~fw ~(sc : Scenario.t) ~seed ~index =
  let group = index and mode = fw.Aft.fw_mode in
  let dseed = Scenario.device_seed ~seed ~index in
  let k =
    Span.with_ tr ~name:"kernel.create" ~group (fun () ->
        Kernel.create ~policy:Kernel.Disable ~scenario:sc.Scenario.sc_sensors
          ~seed:dseed fw)
  in
  Span.with_ tr ~name:"kernel.post" ~group (fun () ->
      List.iter
        (fun (delay_ms, app, kind, arg) -> Kernel.post k ~delay_ms ~app kind ~arg)
        (device_events sc ~napps:(Array.length k.Kernel.apps) ~dseed));
  let deadline = k.Kernel.now + Event.ms_to_cycles sc.Scenario.sc_duration_ms in
  let rec go acc =
    match Event_queue.peek k.Kernel.queue with
    | Some e when e.Event.at <= deadline -> (
      match traced_dispatch tr ctr ~group ~mode k with
      | Some r -> go (r :: acc)
      | None -> List.rev acc)
    | _ ->
      k.Kernel.now <- deadline;
      List.rev acc
  in
  let records = go [] in
  ctr.blocks <- ctr.blocks + Hashtbl.length k.Kernel.machine.M.blocks;
  ctr.booted <- ctr.booted + 1;
  let dispatch = Hist.create () and latency = Hist.create () in
  let handled = ref 0 and no_handler = ref 0 and faults = ref 0 and api = ref 0 in
  List.iter
    (fun (r : Kernel.dispatch_record) ->
      match r.Kernel.dr_outcome with
      | Kernel.No_handler -> incr no_handler
      | Kernel.Ok | Kernel.App_fault _ ->
        incr handled;
        Hist.record dispatch r.Kernel.dr_cycles;
        Hist.record latency r.Kernel.dr_latency;
        api := !api + r.Kernel.dr_api_calls;
        (match r.Kernel.dr_outcome with
        | Kernel.App_fault _ -> incr faults
        | Kernel.Ok | Kernel.No_handler -> ()))
    records;
  let cycles = M.cycles k.Kernel.machine in
  let os_intact, alive =
    Span.with_ tr ~name:"oracle.probe" ~group (fun () ->
        let os = Kernel.os_intact k in
        (os, Kernel.liveness_probe k ~app:0))
  in
  {
    Device.r_index = index;
    r_mode = mode;
    r_dispatches = !handled;
    r_no_handler = !no_handler;
    r_faults = !faults;
    r_unrecovered = List.length (Kernel.unrecovered_faults k);
    r_api_calls = !api;
    r_cycles = cycles;
    r_dispatch = dispatch;
    r_latency = latency;
    r_os_intact = os_intact;
    r_alive = alive;
  }

(* The traced fleet pass: firmware builds, every device replayed, the
   shard folded and merged as [Fleet.run] does.  Returns the aggregate
   JSON, which must equal the untraced run's byte for byte. *)
let fleet_traced tr ctr (sc : Scenario.t) ~seed =
  let fws = fleet_firmwares ~tr sc in
  let sh = Fleet.shard_empty () in
  for index = 0 to sc.Scenario.sc_devices - 1 do
    Span.with_ tr ~name:"device" ~group:index (fun () ->
        let fw = List.assoc (Scenario.device_mode sc ~index) fws in
        let r = replay_device tr ctr ~fw ~sc ~seed ~index in
        Span.with_ tr ~name:"fleet.shard_record" ~group:index (fun () ->
            Fleet.shard_record sh r))
  done;
  let merged =
    Span.with_ tr ~name:"fleet.shard_merge" ~group:0 (fun () ->
        Fleet.shard_merge (Fleet.shard_empty ()) sh)
  in
  let modes = Fleet.shard_modes merged in
  let sum f = List.fold_left (fun a m -> a + f m) 0 modes in
  let s =
    {
      Fleet.fs_scenario = sc;
      fs_seed = seed;
      fs_jobs = 1;
      fs_modes = modes;
      fs_devices = sum (fun m -> m.Fleet.ma_devices);
      fs_dispatches = sum (fun m -> m.Fleet.ma_dispatches);
      fs_oracle_failures = sum (fun m -> m.Fleet.ma_oracle_failures);
      fs_violations = Fleet.shard_violations merged;
      fs_elapsed_s = 0.0;
    }
  in
  Json.to_string (Fleet.summary_json s)

(* ------------------------------------------------------------------ *)
(* gateheavy                                                           *)

(* Per mode and iteration; the standing backlog and warm-up match the
   statistical runner behind amulet_bench. *)
let gate_dispatches = 500
let gate_warmup = 200
let gate_backlog = 4

type gate_kernel = { g_mode : Iso.mode; g_kernel : Kernel.t }

let post_button k = Kernel.post k ~delay_ms:0 ~app:0 (Event.Button 1) ~arg:1

let gate_setup ?tr () =
  List.map
    (fun mode ->
      let group = mode_index mode in
      let spec = Suite.spec_for mode Suite.gateheavy in
      if Option.is_some tr then
        span tr ~name:"cc.compile" ~group (fun () -> compile ~mode spec);
      let fw = span tr ~name:"aft.build" ~group (fun () -> Aft.build ~mode [ spec ]) in
      let k =
        span tr ~name:"kernel.create" ~group (fun () ->
            Kernel.create ~scenario:Sensors.Walking fw)
      in
      ignore (Kernel.run_for_ms k 5);
      for _ = 1 to gate_backlog do
        post_button k
      done;
      for _ = 1 to gate_warmup do
        post_button k;
        ignore (Kernel.dispatch_next k)
      done;
      { g_mode = mode; g_kernel = k })
    Iso.all

(* One iteration: [gate_dispatches] button events per mode, each
   posted behind the standing backlog.  Returns the sample and the
   simulated cycles each mode spent, which the traced run must
   reproduce exactly. *)
let gate_iteration ?tr ?ctr tally kernels =
  let dispatch = Hist.create () in
  let faults = ref 0 in
  let t0 = Span.now_s () in
  let per_mode =
    List.map
      (fun g ->
        let k = g.g_kernel in
        let c0 = M.cycles k.Kernel.machine in
        let group = mode_index g.g_mode in
        let one () =
          post_button k;
          match
            match (tr, ctr) with
            | Some tr, Some ctr -> traced_dispatch tr ctr ~group ~mode:g.g_mode k
            | _ -> Kernel.dispatch_next k
          with
          | Some r ->
            Hist.record dispatch r.Kernel.dr_cycles;
            (match r.Kernel.dr_outcome with
            | Kernel.App_fault _ | Kernel.No_handler -> incr faults
            | Kernel.Ok -> ())
          | None -> incr faults
        in
        span tr ~name:"interp.batch" ~group (fun () ->
            for _ = 1 to gate_dispatches do
              one ()
            done);
        Option.iter
          (fun ctr ->
            ctr.blocks <- ctr.blocks + Hashtbl.length k.Kernel.machine.M.blocks;
            ctr.booted <- ctr.booted + 1)
          ctr;
        (g.g_mode, M.cycles k.Kernel.machine - c0))
      kernels
  in
  let wall_s = Span.now_s () -. t0 in
  let n = List.length kernels * gate_dispatches in
  account tally ~attempted:n ~failed:!faults "gateheavy dispatches ending Ok";
  ( {
      wall_s;
      devices = List.length kernels;
      cells = List.length kernels;
      dispatches = n;
      sim_cycles = List.fold_left (fun a (_, c) -> a + c) 0 per_mode;
      dispatch;
    },
    per_mode )

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign_cells () =
  List.concat_map (fun a -> List.map (fun m -> (a, m)) Iso.all) Attacks.corpus

let injection_rows () =
  List.concat_map (fun m -> [ (m, `Regs); (m, `Fram); (m, `Mpu) ]) Iso.all

(* The prover's default pass: every obligation at k_max 8 with its
   counterexample replayed, then the corpus crosscheck. *)
let check_obligation ob =
  let r = Ob.check ~k_max:8 ob in
  r.Ob.res_ok
  &&
  match Ob.refuted_trace r with
  | None -> true
  | Some (trace, final) -> (
    match Replay.replay ~mode:ob.Ob.ob_mode ~trace ~final () with
    | Ok rep -> rep.Replay.rp_ok
    | Error _ -> false)

let cell_ok (c : Campaign.cell) =
  c.Campaign.cl_match && c.Campaign.cl_oracle_ok && c.Campaign.cl_lint_ok
  && c.Campaign.cl_wcet_violations = 0

let campaign_check tally ~obligations ~rows (s : Campaign.summary) =
  let count p l = List.length (List.filter p l) in
  account tally ~attempted:(List.length obligations)
    ~failed:(count not obligations) "proof obligations discharged";
  account tally ~attempted:(List.length rows)
    ~failed:(count (fun r -> not (Proofcheck.row_ok r)) rows)
    "corpus crosscheck rows";
  let bad =
    count (fun c -> not (cell_ok c)) s.Campaign.s_cells
    + count (fun i -> not i.Campaign.in_deterministic) s.Campaign.s_injections
  in
  account tally
    ~attempted:(List.length s.Campaign.s_cells + List.length s.Campaign.s_injections)
    ~failed:(if bad = 0 && not (Campaign.ok s) then 1 else bad)
    "campaign cells and injection rows"

let campaign_sample (s : Campaign.summary) ~wall_s =
  let dispatch =
    List.fold_left (fun h (_, d) -> Hist.merge h d) (Hist.create ()) s.Campaign.s_dispatch
  in
  let built =
    List.length
      (List.filter
         (fun c -> c.Campaign.cl_observed <> Campaign.O_build_rejected)
         s.Campaign.s_cells)
  in
  let injections = List.length s.Campaign.s_injections in
  {
    wall_s;
    (* each injection row boots its kernel twice, to prove replay *)
    devices = built + (2 * injections);
    cells = List.length s.Campaign.s_cells + injections;
    dispatches = Hist.count dispatch;
    sim_cycles = Hist.sum dispatch;
    dispatch;
  }

let campaign_run tally ~seed =
  let t0 = Span.now_s () in
  let obligations = List.map check_obligation Ob.all in
  let rows = Proofcheck.run () in
  let s = Campaign.run ~jobs:1 ~seed () in
  let wall_s = Span.now_s () -. t0 in
  campaign_check tally ~obligations ~rows s;
  (s, campaign_sample s ~wall_s)

let same_cell (a : Campaign.cell) (b : Campaign.cell) =
  let strip c = { c with Campaign.cl_dispatch = Hist.create () } in
  strip a = strip b && Hist.equal a.Campaign.cl_dispatch b.Campaign.cl_dispatch

(* The traced campaign pass, in two parts.  The first repeats the
   untraced iteration call by call and is what the tracing overhead is
   measured on.  The second times, on their own, the layers a cell
   calls internally (its build, lint, WCET, compile), so cell self
   time can be derived as cell time minus build and lint. *)
let campaign_traced tr tally ~seed ~(reference : Campaign.summary) =
  let t0 = Span.now_s () in
  let obligations =
    Span.with_ tr ~name:"proof.obligations" ~group:0 (fun () ->
        List.mapi
          (fun i ob -> Span.with_ tr ~name:"proof.check" ~group:i (fun () -> check_obligation ob))
          Ob.all)
  in
  let rows = Span.with_ tr ~name:"proof.crosscheck" ~group:0 (fun () -> Proofcheck.run ()) in
  let cells =
    List.mapi
      (fun i (attack, mode) ->
        Span.with_ tr ~name:"campaign.cell" ~group:i (fun () ->
            Campaign.run_cell ~attack ~mode ~seed))
      (campaign_cells ())
  in
  let injections =
    List.mapi
      (fun i (mode, target) ->
        Span.with_ tr ~name:"campaign.injection" ~group:i (fun () ->
            Campaign.run_injection ~mode ~target ~seed))
      (injection_rows ())
  in
  let wall_s = Span.now_s () -. t0 in
  let same =
    List.length cells = List.length reference.Campaign.s_cells
    && List.for_all2 same_cell cells reference.Campaign.s_cells
    && injections = reference.Campaign.s_injections
  in
  account tally ~attempted:1 ~failed:(if same then 0 else 1)
    "traced campaign cells equal the untraced run's";
  account tally ~attempted:1
    ~failed:(if List.for_all Fun.id obligations && Proofcheck.ok rows then 0 else 1)
    "traced proof pass discharged";
  List.iteri
    (fun i (attack, mode) ->
      match Span.with_ tr ~name:"aft.build" ~group:i (fun () -> Attacks.build_cell ~attack ~mode) with
      | Attacks.Rejected _ -> ()
      | Attacks.Built { fw; attacker; _ } ->
        let image = fw.Aft.fw_image in
        Span.with_ tr ~name:"lint.run" ~group:i (fun () ->
            ignore (Lint.run ~image ~mode ~apps:[ attacker ]));
        Span.with_ tr ~name:"wcet.analyze" ~group:i (fun () ->
            List.iter
              (fun (b : Aft.app_build) ->
                match Cfi.reconstruct ~image ~mode ~prefix:b.Aft.ab_name with
                | Ok cfg -> ignore (Wcet.analyze ~image ~cfg)
                | Error _ | (exception Invalid_argument _) -> ())
              fw.Aft.fw_apps))
    (campaign_cells ());
  List.iter
    (fun mode ->
      List.iter
        (fun app ->
          Span.with_ tr ~name:"cc.compile" ~group:(mode_index mode) (fun () ->
              compile ~mode (Suite.spec_for mode app)))
        [ Suite.security_victim; Suite.security_carrier ])
    Iso.all;
  wall_s

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* A printable description of everything a workload feeds the program
   for a seed.  The benchmark's tests use it to show that the seed
   reaches the fleet and campaign inputs and leaves gateheavy's alone. *)
let describe_inputs w ~seed =
  match w with
  | Fleet_steady ->
    let sc = fleet_scenario () in
    let napps = List.length sc.Scenario.sc_apps in
    let events index =
      device_events sc ~napps ~dseed:(Scenario.device_seed ~seed ~index)
      |> List.map (fun (t, a, k, arg) ->
             Printf.sprintf "%d:%d:%s:%d" t a (Event.kind_name k) arg)
      |> String.concat ","
    in
    Format.asprintf "%a@.seed %d@.%s" Scenario.pp sc seed
      (String.concat "\n" (List.init 8 events))
  | Gateheavy ->
    Printf.sprintf "gateheavy %s modes=%s dispatches=%d warmup=%d backlog=%d"
      (Digest.to_hex (Digest.string Suite.gateheavy.Suite.source))
      (String.concat "," (List.map Iso.name Iso.all))
      gate_dispatches gate_warmup gate_backlog
  | Campaign_matrix ->
    Printf.sprintf "campaign seed=%d cells=%s injections=%d" seed
      (String.concat ","
         (List.map
            (fun ((a : Attacks.t), m) -> a.Attacks.atk_name ^ "/" ^ Iso.name m)
            (campaign_cells ())))
      (List.length (injection_rows ()))
