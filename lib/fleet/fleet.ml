module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Suite = Amulet_apps.Suite
module Hist = Amulet_obs.Hist
module Json = Amulet_obs.Json
module Energy = Amulet_arp.Energy

type mode_agg = {
  ma_mode : Iso.mode;
  ma_devices : int;
  ma_dispatches : int;
  ma_no_handler : int;
  ma_faults : int;
  ma_unrecovered : int;
  ma_api_calls : int;
  ma_cycles : int;
  ma_dispatch : Hist.t;
  ma_latency : Hist.t;
  ma_oracle_failures : int;
}

let agg_empty mode =
  {
    ma_mode = mode;
    ma_devices = 0;
    ma_dispatches = 0;
    ma_no_handler = 0;
    ma_faults = 0;
    ma_unrecovered = 0;
    ma_api_calls = 0;
    ma_cycles = 0;
    ma_dispatch = Hist.create ();
    ma_latency = Hist.create ();
    ma_oracle_failures = 0;
  }

(* One slot per isolation mode (Iso.all order) plus the complete,
   sorted violation list.  The per-worker instance is mutated in
   place; merge is pure. *)
type shard = {
  slots : mode_agg option array;
  mutable violations : string list;  (* sorted ascending *)
}

let mode_index m =
  let rec go i = function
    | [] -> assert false
    | x :: tl -> if x = m then i else go (i + 1) tl
  in
  go 0 Iso.all

let shard_empty () =
  { slots = Array.make (List.length Iso.all) None; violations = [] }

(* The device's histograms are added into the slot's own, which no
   other shard shares (see [shard_merge]). *)
let shard_record sh (r : Device.result) =
  let i = mode_index r.Device.r_mode in
  let a =
    match sh.slots.(i) with
    | Some a -> a
    | None -> agg_empty r.Device.r_mode
  in
  let v = Device.violations r in
  Hist.add_into a.ma_dispatch r.Device.r_dispatch;
  Hist.add_into a.ma_latency r.Device.r_latency;
  sh.slots.(i) <-
    Some
      {
        a with
        ma_devices = a.ma_devices + 1;
        ma_dispatches = a.ma_dispatches + r.Device.r_dispatches;
        ma_no_handler = a.ma_no_handler + r.Device.r_no_handler;
        ma_faults = a.ma_faults + r.Device.r_faults;
        ma_unrecovered = a.ma_unrecovered + r.Device.r_unrecovered;
        ma_api_calls = a.ma_api_calls + r.Device.r_api_calls;
        ma_cycles = a.ma_cycles + r.Device.r_cycles;
        ma_oracle_failures = a.ma_oracle_failures + (if v = [] then 0 else 1);
      };
  sh.violations <- List.merge compare (List.sort compare v) sh.violations

let agg_merge a b =
  assert (a.ma_mode = b.ma_mode);
  {
    ma_mode = a.ma_mode;
    ma_devices = a.ma_devices + b.ma_devices;
    ma_dispatches = a.ma_dispatches + b.ma_dispatches;
    ma_no_handler = a.ma_no_handler + b.ma_no_handler;
    ma_faults = a.ma_faults + b.ma_faults;
    ma_unrecovered = a.ma_unrecovered + b.ma_unrecovered;
    ma_api_calls = a.ma_api_calls + b.ma_api_calls;
    ma_cycles = a.ma_cycles + b.ma_cycles;
    ma_dispatch = Hist.merge a.ma_dispatch b.ma_dispatch;
    ma_latency = Hist.merge a.ma_latency b.ma_latency;
    ma_oracle_failures = a.ma_oracle_failures + b.ma_oracle_failures;
  }

(* A slot only one side has is copied, never shared: [shard_record]
   adds into a worker's histograms in place. *)
let shard_merge x y =
  {
    slots =
      Array.init (Array.length x.slots) (fun i ->
          match (x.slots.(i), y.slots.(i)) with
          | None, None -> None
          | Some a, None | None, Some a ->
            Some (agg_merge a (agg_empty a.ma_mode))
          | Some a, Some b -> Some (agg_merge a b));
    violations = List.merge compare x.violations y.violations;
  }

let agg_equal a b =
  a.ma_mode = b.ma_mode && a.ma_devices = b.ma_devices
  && a.ma_dispatches = b.ma_dispatches
  && a.ma_no_handler = b.ma_no_handler
  && a.ma_faults = b.ma_faults
  && a.ma_unrecovered = b.ma_unrecovered
  && a.ma_api_calls = b.ma_api_calls
  && a.ma_cycles = b.ma_cycles
  && Hist.equal a.ma_dispatch b.ma_dispatch
  && Hist.equal a.ma_latency b.ma_latency
  && a.ma_oracle_failures = b.ma_oracle_failures

let shard_equal x y =
  Array.length x.slots = Array.length y.slots
  && x.violations = y.violations
  && Array.for_all2
       (fun a b ->
         match (a, b) with
         | None, None -> true
         | Some a, Some b -> agg_equal a b
         | _ -> false)
       x.slots y.slots

let shard_modes sh =
  Array.to_list sh.slots |> List.filter_map (fun x -> x)

let shard_violations sh = sh.violations

type summary = {
  fs_scenario : Scenario.t;
  fs_seed : int;
  fs_jobs : int;
  fs_modes : mode_agg list;
  fs_devices : int;
  fs_dispatches : int;
  fs_oracle_failures : int;
  fs_violations : string list;
  fs_elapsed_s : float;
}

let run ?(jobs = 0) ?progress ?seed scenario =
  let seed = Option.value ~default:scenario.Scenario.sc_seed seed in
  let jobs =
    let j = if jobs > 0 then jobs else Sched.default_jobs () in
    max 1 (min j scenario.Scenario.sc_devices)
  in
  (* one firmware per mode of the mix, compiled once on this domain
     and shared read-only by every device on every worker *)
  let fws =
    List.map
      (fun (m, _) ->
        ( m,
          Aft.build ~mode:m
            (List.map
               (fun name -> Suite.spec_for m (Suite.find name))
               scenario.Scenario.sc_apps) ))
      (Scenario.mode_devices scenario)
  in
  let t0 = Unix.gettimeofday () in
  (* Each worker boots a mode's firmware on its first device of that
     mode and starts every later one from the boot.  Boots never leave
     their worker (blocks carry mutable validation state) nor outlive
     this call. *)
  let shards =
    Sched.fold_shards ~jobs ~batch:4 ?progress
      ~init:(fun () -> (shard_empty (), Hashtbl.create 4))
      ~fold:(fun ((sh, boots) as acc) index ->
        let mode = Scenario.device_mode scenario ~index in
        let boot =
          match Hashtbl.find_opt boots mode with
          | Some b -> b
          | None ->
            let b = Amulet_os.Kernel.boot (List.assoc mode fws) in
            Hashtbl.add boots mode b;
            b
        in
        shard_record sh (Device.run ~boot ~scenario ~seed ~index);
        acc)
      (List.init scenario.Scenario.sc_devices (fun i -> i))
    |> List.map fst
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* lossless-merge invariant: folding the shards in either direction
     must produce the same aggregate, or the merge is order-dependent
     and every number below is schedule-dependent garbage *)
  let merged = List.fold_left shard_merge (shard_empty ()) shards in
  let merged_rev =
    List.fold_left shard_merge (shard_empty ()) (List.rev shards)
  in
  if not (shard_equal merged merged_rev) then
    invalid_arg "Fleet.run: shard merge is not order-independent";
  let modes = shard_modes merged in
  {
    fs_scenario = scenario;
    fs_seed = seed;
    fs_jobs = jobs;
    fs_modes = modes;
    fs_devices = List.fold_left (fun a m -> a + m.ma_devices) 0 modes;
    fs_dispatches = List.fold_left (fun a m -> a + m.ma_dispatches) 0 modes;
    fs_oracle_failures =
      List.fold_left (fun a m -> a + m.ma_oracle_failures) 0 modes;
    fs_violations = shard_violations merged;
    fs_elapsed_s = elapsed;
  }

let ok s = s.fs_oracle_failures = 0

(* virtual seconds simulated per device *)
let device_seconds s =
  float s.fs_scenario.Scenario.sc_duration_ms /. 1000.0

let per_device_sec s total devices =
  if devices = 0 then 0.0
  else float total /. float devices /. device_seconds s

let mode_json s (a : mode_agg) =
  Json.Obj
    [
      ("mode", Json.Str (Iso.name a.ma_mode));
      ("devices", Json.Int a.ma_devices);
      ("dispatches", Json.Int a.ma_dispatches);
      ("no_handler", Json.Int a.ma_no_handler);
      ("faults", Json.Int a.ma_faults);
      ("unrecovered", Json.Int a.ma_unrecovered);
      ("api_calls", Json.Int a.ma_api_calls);
      ("cycles", Json.Int a.ma_cycles);
      ("dispatch_cycles", Hist.summary_json a.ma_dispatch);
      ("latency_cycles", Hist.summary_json a.ma_latency);
      ("faults_per_device_sec", Json.Float (per_device_sec s a.ma_faults a.ma_devices));
      ("cycles_per_device_sec", Json.Float (per_device_sec s a.ma_cycles a.ma_devices));
      ("energy_joules", Json.Float (Energy.joules_of_cycles a.ma_cycles));
      ( "battery_percent",
        Json.Float
          (Energy.battery_impact_of_run
             ~cycles:(a.ma_cycles / max 1 a.ma_devices)
             ~duration_ms:s.fs_scenario.Scenario.sc_duration_ms) );
      ("oracle_failures", Json.Int a.ma_oracle_failures);
    ]

let summary_json s =
  Json.Obj
    [
      ("scenario", Json.Str s.fs_scenario.Scenario.sc_name);
      ("seed", Json.Int s.fs_seed);
      ("devices", Json.Int s.fs_devices);
      ("duration_ms", Json.Int s.fs_scenario.Scenario.sc_duration_ms);
      ("dispatches", Json.Int s.fs_dispatches);
      ("oracle_failures", Json.Int s.fs_oracle_failures);
      ("violations", Json.Arr (List.map (fun v -> Json.Str v) s.fs_violations));
      ("modes", Json.Arr (List.map (mode_json s) s.fs_modes));
    ]

let pp ppf s =
  Format.fprintf ppf "fleet %s: %d devices x %d ms (seed %d, %d jobs)@."
    s.fs_scenario.Scenario.sc_name s.fs_devices
    s.fs_scenario.Scenario.sc_duration_ms s.fs_seed s.fs_jobs;
  Format.fprintf ppf "  %-14s %8s %10s %7s %7s %9s %9s %9s %11s %10s@."
    "mode" "devices" "dispatches" "p50" "p99" "lat-p50" "lat-p99" "faults/s"
    "Mcyc/dev-s" "uJ/device";
  List.iter
    (fun a ->
      Format.fprintf ppf
        "  %-14s %8d %10d %7d %7d %9d %9d %9.3f %11.2f %10.1f@."
        (Iso.name a.ma_mode) a.ma_devices a.ma_dispatches
        (Hist.quantile a.ma_dispatch 0.5)
        (Hist.quantile a.ma_dispatch 0.99)
        (Hist.quantile a.ma_latency 0.5)
        (Hist.quantile a.ma_latency 0.99)
        (per_device_sec s a.ma_faults a.ma_devices)
        (per_device_sec s a.ma_cycles a.ma_devices /. 1e6)
        (Energy.joules_of_cycles (a.ma_cycles / max 1 a.ma_devices) *. 1e6))
    s.fs_modes;
  let cycles = List.fold_left (fun a m -> a + m.ma_cycles) 0 s.fs_modes in
  Format.fprintf ppf
    "  host: %.2f s wall, %.1f devices/sec, %.1f M simulated cycles/sec@."
    s.fs_elapsed_s
    (float s.fs_devices /. max 1e-9 s.fs_elapsed_s)
    (float cycles /. max 1e-9 s.fs_elapsed_s /. 1e6);
  if s.fs_violations = [] then
    Format.fprintf ppf "  isolation oracle: clean (%d devices)@." s.fs_devices
  else begin
    Format.fprintf ppf "  ISOLATION ORACLE: %d device(s) violated@."
      s.fs_oracle_failures;
    List.iter (fun v -> Format.fprintf ppf "    %s@." v) s.fs_violations
  end
