(* Fleet service tests: scenario-DSL parsing (including the two
   shipped example files), the work-stealing scheduler's ordering and
   partition invariants, QCheck properties that shard merging over
   Obs.Hist / Obs.Agg is partition- and order-independent, and the
   end-to-end determinism contract — same scenario + seed twice, and
   jobs=1 vs jobs=2 and 4, produce bit-identical aggregate JSON. *)

module Iso = Amulet_cc.Isolation
module Hist = Amulet_obs.Hist
module Agg = Amulet_obs.Agg
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json
module Sched = Amulet_fleet_core.Sched
module Scenario = Amulet_fleet_core.Scenario
module Device = Amulet_fleet_core.Device
module Fleet = Amulet_fleet_core.Fleet

let locate candidates =
  try List.find Sys.file_exists candidates with Not_found -> List.hd candidates

let parse_ok text =
  match Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err text =
  match Scenario.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* --- scenario DSL ------------------------------------------------- *)

let test_parse_steady_day () =
  let path =
    locate
      [
        "../examples/scenarios/steady_day.fleet";
        "examples/scenarios/steady_day.fleet";
      ]
  in
  match Scenario.of_file path with
  | Error e -> Alcotest.failf "steady_day.fleet: %s" e
  | Ok s ->
    Alcotest.(check string) "name" "steady_day" s.Scenario.sc_name;
    Alcotest.(check int) "devices" 1000 s.Scenario.sc_devices;
    Alcotest.(check int) "duration" 1000 s.Scenario.sc_duration_ms;
    Alcotest.(check int) "seed" 42 s.Scenario.sc_seed;
    Alcotest.(check int) "modes" 4 (List.length s.Scenario.sc_modes);
    Alcotest.(check (list string))
      "apps" [ "pedometer"; "clock" ] s.Scenario.sc_apps;
    Alcotest.(check int) "traffic streams" 3
      (List.length s.Scenario.sc_traffic);
    Alcotest.(check (option int)) "churn" (Some 400) s.Scenario.sc_churn_ms

let test_parse_sensor_storm () =
  let path =
    locate
      [
        "../examples/scenarios/sensor_storm.fleet";
        "examples/scenarios/sensor_storm.fleet";
      ]
  in
  match Scenario.of_file path with
  | Error e -> Alcotest.failf "sensor_storm.fleet: %s" e
  | Ok s ->
    Alcotest.(check string) "name" "sensor_storm" s.Scenario.sc_name;
    Alcotest.(check int) "devices" 500 s.Scenario.sc_devices;
    Alcotest.(check int) "duration" 600 s.Scenario.sc_duration_ms;
    (match s.Scenario.sc_modes with
    | [ (m1, w1); (m2, w2) ] ->
      Alcotest.(check string) "mode 1" "software-only" (Iso.name m1);
      Alcotest.(check int) "weight 1" 1 w1;
      Alcotest.(check string) "mode 2" "mpu" (Iso.name m2);
      Alcotest.(check int) "weight 2" 3 w2
    | _ -> Alcotest.fail "expected exactly two modes");
    Alcotest.(check int) "traffic streams" 2
      (List.length s.Scenario.sc_traffic);
    Alcotest.(check (option int)) "no churn" None s.Scenario.sc_churn_ms

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_err ~line text =
  let e = parse_err text in
  Alcotest.(check bool)
    (Printf.sprintf "error %S names line %d" e line)
    true
    (contains e (Printf.sprintf "line %d" line))

let test_parse_errors () =
  check_err ~line:1 "wibble 3";
  check_err ~line:2 "devices 10\nmodes frobnicate=1";
  check_err ~line:1 "modes mpu=0";
  check_err ~line:1 "modes mpu=1 mpu=2";
  check_err ~line:1 "apps not_a_suite_app";
  check_err ~line:1 "traffic ble rate=0";
  check_err ~line:2 "devices 4\ntraffic tick rate=1500";
  check_err ~line:1 "traffic ble rate=1 burst=0";
  check_err ~line:1 "devices zero";
  check_err ~line:1 "sensors flying";
  check_err ~line:3 "devices 4\nduration 100ms\nchurn -5ms"

let test_parse_defaults_and_comments () =
  let s = parse_ok "# only a comment\n\nscenario tiny\n" in
  Alcotest.(check string) "name" "tiny" s.Scenario.sc_name;
  Alcotest.(check int) "default devices" 1 s.Scenario.sc_devices;
  Alcotest.(check int) "default modes" 4 (List.length s.Scenario.sc_modes);
  Alcotest.(check (list string))
    "default apps" [ "pedometer" ] s.Scenario.sc_apps

let test_device_seed () =
  let s1 = Scenario.device_seed ~seed:42 ~index:0 in
  let s1' = Scenario.device_seed ~seed:42 ~index:0 in
  Alcotest.(check int) "deterministic" s1 s1';
  Alcotest.(check bool) "non-negative" true (s1 >= 0);
  let seeds =
    List.init 256 (fun i -> Scenario.device_seed ~seed:42 ~index:i)
  in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "distinct across indices" 256 (List.length distinct);
  Alcotest.(check bool) "distinct across base seeds" true
    (Scenario.device_seed ~seed:1 ~index:0
    <> Scenario.device_seed ~seed:2 ~index:0)

let test_device_mode_round_robin () =
  let s = parse_ok "devices 500\nmodes software=1 mpu=3" in
  let counts = Scenario.mode_devices s in
  let find name =
    List.assoc_opt name
      (List.map (fun (m, n) -> (Iso.name m, n)) counts)
  in
  Alcotest.(check (option int)) "software share" (Some 125) (find "software-only");
  Alcotest.(check (option int)) "mpu share" (Some 375) (find "mpu");
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  Alcotest.(check int) "shares cover the fleet" 500 total;
  (* weighted round-robin: slot 0 -> software, slots 1..3 -> mpu *)
  Alcotest.(check string) "slot 0" "software-only"
    (Iso.name (Scenario.device_mode s ~index:0));
  Alcotest.(check string) "slot 1" "mpu"
    (Iso.name (Scenario.device_mode s ~index:1));
  Alcotest.(check string) "slot 4 wraps" "software-only"
    (Iso.name (Scenario.device_mode s ~index:4))

(* --- scheduler ---------------------------------------------------- *)

let test_sched_map_order () =
  let items = List.init 101 Fun.id in
  let expect = List.map (fun x -> (x * 7) + 1) items in
  List.iter
    (fun jobs ->
      let got = Sched.map ~jobs (fun x -> (x * 7) + 1) items in
      Alcotest.(check (list int))
        (Printf.sprintf "map order at jobs=%d" jobs)
        expect got)
    [ 1; 2; 8; 200 (* more jobs than items *) ];
  Alcotest.(check (list int)) "empty input" [] (Sched.map ~jobs:4 Fun.id []);
  Alcotest.(check bool) "default_jobs positive" true (Sched.default_jobs () >= 1)

let test_sched_fold_shards_partition () =
  let items = List.init 97 (fun i -> i * 3) in
  let expect = List.sort compare items in
  List.iter
    (fun jobs ->
      let shards =
        Sched.fold_shards ~jobs
          ~init:(fun () -> [])
          ~fold:(fun acc x -> x :: acc)
          items
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard count bounded at jobs=%d" jobs)
        true
        (List.length shards <= max 1 jobs);
      let merged = List.sort compare (List.concat shards) in
      Alcotest.(check (list int))
        (Printf.sprintf "shards partition the input at jobs=%d" jobs)
        expect merged)
    [ 1; 3; 8 ]

let test_sched_progress () =
  let seen = ref 0 and final = ref (-1) in
  let progress ~done_ ~total =
    incr seen;
    Alcotest.(check bool) "monotone" true (done_ <= total);
    if done_ = total then final := total
  in
  let _ = Sched.map ~jobs:2 ~batch:4 ~progress Fun.id (List.init 37 Fun.id) in
  Alcotest.(check bool) "progress called" true (!seen > 0);
  Alcotest.(check int) "progress reaches total" 37 !final

(* --- shard merge properties --------------------------------------- *)

let hist_of xs =
  let h = Hist.create () in
  List.iter (Hist.record h) xs;
  h

(* Synthetic device results with randomized counters, histogram
   samples and oracle verdicts — the QCheck generator for the
   partition/order property. *)
let gen_result =
  QCheck.Gen.(
    let* idx = int_bound 10_000 in
    let* mode_ix = int_bound (List.length Iso.all - 1) in
    let* dispatches = int_bound 50 in
    let* no_handler = int_bound 5 in
    let* faults = int_bound 5 in
    let* api_calls = int_bound 200 in
    let* cycles = int_bound 100_000 in
    let* dispatch_samples = list_size (0 -- 30) (int_bound 5_000) in
    let* latency_samples = list_size (0 -- 30) (int_bound 2_000) in
    let* os_intact = bool in
    let* alive = bool in
    return
      {
        Device.r_index = idx;
        r_mode = List.nth Iso.all mode_ix;
        r_dispatches = dispatches;
        r_no_handler = no_handler;
        r_faults = faults;
        r_unrecovered = 0;
        r_api_calls = api_calls;
        r_cycles = cycles;
        r_dispatch = hist_of dispatch_samples;
        r_latency = hist_of latency_samples;
        r_os_intact = os_intact;
        r_alive = alive;
      })

let arb_results =
  QCheck.make
    ~print:(fun rs ->
      String.concat ";"
        (List.map (fun r -> string_of_int r.Device.r_index) rs))
    QCheck.Gen.(list_size (0 -- 40) gen_result)

(* Deterministic pseudo-random partition/permutation derived from a
   generated salt — QCheck supplies the randomness, the split itself
   is a pure function of (salt, list). *)
let partition_by salt parts rs =
  let buckets = Array.make (max 1 parts) [] in
  List.iteri
    (fun i r ->
      let k = (i * 2654435761) lxor salt in
      let b = abs k mod max 1 parts in
      buckets.(b) <- r :: buckets.(b))
    rs;
  Array.to_list buckets

let shard_of rs =
  let s = Fleet.shard_empty () in
  List.iter (Fleet.shard_record s) rs;
  s

let prop_shard_partition_order =
  QCheck.Test.make ~count:200
    ~name:"shard merge is partition- and order-independent"
    (QCheck.triple arb_results QCheck.small_nat QCheck.small_nat)
    (fun (rs, salt, parts) ->
      let parts = 1 + (parts mod 5) in
      let sequential = shard_of rs in
      let pieces = List.map shard_of (partition_by salt parts rs) in
      let forward =
        List.fold_left Fleet.shard_merge (Fleet.shard_empty ()) pieces
      in
      let reverse =
        List.fold_left Fleet.shard_merge (Fleet.shard_empty ())
          (List.rev pieces)
      in
      Fleet.shard_equal sequential forward
      && Fleet.shard_equal sequential reverse)

let prop_shard_merge_assoc =
  QCheck.Test.make ~count:100 ~name:"shard merge is associative"
    (QCheck.triple arb_results arb_results arb_results)
    (fun (xs, ys, zs) ->
      let a = shard_of xs and b = shard_of ys and c = shard_of zs in
      Fleet.shard_equal
        (Fleet.shard_merge (Fleet.shard_merge a b) c)
        (Fleet.shard_merge a (Fleet.shard_merge b c)))

(* [shard_record] adds into a shard's histograms in place, so a merge
   must not share one with its arguments: recording into the workers'
   shards after merging them leaves the merged value as it was, which
   is the shard of all their devices in one stream. *)
let prop_shard_merge_unshared =
  QCheck.Test.make ~count:100 ~name:"recording after a merge leaves it"
    (QCheck.triple arb_results arb_results arb_results)
    (fun (xs, ys, zs) ->
      let a = shard_of xs and b = shard_of ys in
      let merged = Fleet.shard_merge a b in
      List.iter (Fleet.shard_record a) zs;
      List.iter (Fleet.shard_record b) zs;
      Fleet.shard_equal merged (shard_of (xs @ ys)))

(* --- Obs.Agg partition property ----------------------------------- *)

let gen_record =
  QCheck.Gen.(
    let* ts = int_bound 100_000 in
    let* v = int_bound 10_000 in
    let* kind = int_bound 2 in
    return
      (match kind with
      | 0 ->
        Obs.Span
          { name = "dispatch"; cat = "os"; ts; dur = v; tid = 0; args = [] }
      | 1 -> Obs.Counter { name = "queue_depth"; ts; value = v }
      | _ ->
        Obs.Instant
          { name = "fault"; cat = "os"; ts; tid = 0; args = [] }))

let arb_records =
  QCheck.make
    ~print:(fun rs -> string_of_int (List.length rs))
    QCheck.Gen.(list_size (0 -- 60) gen_record)

let agg_of rs =
  let a = Agg.create () in
  List.iter (Agg.add a) rs;
  a

let agg_equal a b =
  Agg.records a = Agg.records b
  && List.for_all2
       (fun ((k1 : string * string), h1) (k2, h2) ->
         k1 = k2 && Hist.equal h1 h2)
       (Agg.spans a) (Agg.spans b)
  && List.for_all2
       (fun ((n1 : string), c1) (n2, c2) ->
         n1 = n2
         && Hist.equal c1.Agg.c_hist c2.Agg.c_hist
         && c1.Agg.c_max = c2.Agg.c_max)
       (Agg.counters a) (Agg.counters b)
  && Agg.instants a = Agg.instants b
  && Agg.fault_count a = Agg.fault_count b

let prop_agg_partition =
  QCheck.Test.make ~count:200
    ~name:"Agg merge of any partition equals the sequential fold"
    (QCheck.triple arb_records QCheck.small_nat QCheck.small_nat)
    (fun (rs, salt, parts) ->
      let parts = 1 + (parts mod 5) in
      let buckets = Array.make parts [] in
      List.iteri
        (fun i r ->
          let b = abs ((i * 40503) lxor salt) mod parts in
          buckets.(b) <- r :: buckets.(b))
        rs;
      let pieces =
        Array.to_list (Array.map (fun l -> agg_of (List.rev l)) buckets)
      in
      let merged =
        List.fold_left Agg.merge (Agg.create ()) pieces
      in
      let merged_rev =
        List.fold_left Agg.merge (Agg.create ()) (List.rev pieces)
      in
      agg_equal (agg_of rs) merged && agg_equal merged merged_rev)

(* --- end-to-end determinism --------------------------------------- *)

let small_scenario =
  parse_ok
    "scenario unit_fleet\n\
     devices 12\n\
     duration 120ms\n\
     seed 7\n\
     modes none=1 amuletc=1 software=1 mpu=1\n\
     apps pedometer\n\
     sensors walking\n\
     traffic button rate=8\n\
     traffic tick rate=8\n\
     churn 50ms\n"

let summary_string s = Json.to_string (Fleet.summary_json s)

let test_fleet_determinism () =
  let a = Fleet.run ~jobs:1 small_scenario in
  let b = Fleet.run ~jobs:1 small_scenario in
  Alcotest.(check string)
    "same scenario+seed twice => identical aggregate JSON"
    (summary_string a) (summary_string b);
  Alcotest.(check int) "all devices ran" 12 a.Fleet.fs_devices;
  Alcotest.(check bool) "devices dispatched" true (a.Fleet.fs_dispatches > 0);
  Alcotest.(check int) "zero oracle failures" 0 a.Fleet.fs_oracle_failures;
  Alcotest.(check bool) "run is ok" true (Fleet.ok a)

let test_fleet_jobs_invariant () =
  let a = summary_string (Fleet.run ~jobs:1 small_scenario) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=1 and jobs=%d aggregate identically" jobs)
        a
        (summary_string (Fleet.run ~jobs small_scenario)))
    [ 2; 4 ]

let test_fleet_seed_sensitivity () =
  let a = Fleet.run ~jobs:1 small_scenario in
  let b = Fleet.run ~jobs:1 ~seed:8 small_scenario in
  Alcotest.(check bool) "different seed changes the aggregate" true
    (summary_string a <> summary_string b)

let test_fleet_mode_coverage () =
  let s = Fleet.run ~jobs:2 small_scenario in
  let names = List.map (fun m -> Iso.name m.Fleet.ma_mode) s.Fleet.fs_modes in
  Alcotest.(check (list string))
    "all four modes aggregated, Iso.all order"
    (List.map Iso.name Iso.all) names;
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "%s device share" (Iso.name m.Fleet.ma_mode))
        3 m.Fleet.ma_devices)
    s.Fleet.fs_modes

let test_device_violations () =
  let fw_mode = Scenario.device_mode small_scenario ~index:0 in
  let fw =
    Amulet_aft.Aft.build ~mode:fw_mode
      (List.map
         (fun n -> Amulet_apps.Suite.spec_for fw_mode (Amulet_apps.Suite.find n))
         small_scenario.Scenario.sc_apps)
  in
  let r =
    Device.run ~boot:(Amulet_os.Kernel.boot fw) ~scenario:small_scenario
      ~seed:small_scenario.Scenario.sc_seed ~index:0
  in
  Alcotest.(check (list string)) "healthy device has no violations" []
    (Device.violations r);
  let sick = { r with Device.r_os_intact = false; r_alive = false } in
  Alcotest.(check int) "corrupt device reports both probes" 2
    (List.length (Device.violations sick))

(* --- a started kernel equals a fresh boot ------------------------- *)

module Aft = Amulet_aft.Aft
module Suite = Amulet_apps.Suite
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module M = Amulet_mcu.Machine
module Memory = Amulet_mcu.Memory
module Mpu = Amulet_mcu.Mpu
module Trace = Amulet_mcu.Trace
module Attacks = Amulet_sec.Attacks

let steady_fw mode =
  Aft.build ~mode
    (List.map
       (fun n -> Suite.spec_for mode (Suite.find n))
       [ "pedometer"; "clock" ])

(* Everything a run leaves behind that a restore could get wrong. *)
type final = {
  f_records : Kernel.dispatch_record list;
  f_cycles : int;
  f_regs : int array;
  f_mem : Memory.t;
  f_mpu : int list;
  f_stats : int list;
  f_os_intact : bool;
  f_alive : bool;
  f_unrecovered : (string * string) list;
}

(* A few of every event source on top of the apps' own timers and
   sensors, [ms] of dispatches, then the oracle's probes. *)
let drive ?(ms = 300) k =
  let napps = Array.length k.Kernel.apps in
  List.iteri
    (fun i (at, kind, arg) ->
      Kernel.post k ~delay_ms:at ~app:(i mod napps) kind ~arg)
    [
      (5, Event.Button 1, 1); (40, Event.Button 2, 77); (90, Event.Tick, 0);
      (155, Event.Button 1, 1); (220, Event.Init, 0); (265, Event.Button 2, 3);
    ];
  let records = Kernel.run_for_ms k ms in
  let m = k.Kernel.machine in
  let mpu = m.M.mpu and st = m.M.stats in
  let f_os_intact = Kernel.os_intact k in
  {
    f_records = records;
    f_cycles = M.cycles m;
    f_regs = Array.copy (M.regs m);
    f_mem = Memory.copy m.M.mem;
    f_mpu =
      [ mpu.Mpu.ctl0; mpu.Mpu.ctl1; mpu.Mpu.segb1; mpu.Mpu.segb2; mpu.Mpu.sam;
        Mpu.gen mpu; mpu.Mpu.key ];
    f_stats =
      [ st.Trace.fetch_words; st.Trace.data_reads; st.Trace.data_writes ];
    f_os_intact;
    f_alive = Kernel.liveness_probe k ~app:0;
    f_unrecovered = Kernel.unrecovered_faults k;
  }

let check_same name fresh restored =
  let is what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check bool) (is "dispatch records") true
    (fresh.f_records = restored.f_records);
  Alcotest.(check int) (is "cycles") fresh.f_cycles restored.f_cycles;
  Alcotest.(check (array int)) (is "registers") fresh.f_regs restored.f_regs;
  Alcotest.(check bool) (is "memory") true
    (Memory.equal fresh.f_mem restored.f_mem);
  Alcotest.(check (list int)) (is "MPU registers") fresh.f_mpu restored.f_mpu;
  Alcotest.(check (list int))
    (is "access stats") fresh.f_stats restored.f_stats;
  Alcotest.(check bool) (is "os_intact") fresh.f_os_intact restored.f_os_intact;
  Alcotest.(check bool) (is "liveness") fresh.f_alive restored.f_alive;
  Alcotest.(check (list (pair string string)))
    (is "unrecovered faults") fresh.f_unrecovered restored.f_unrecovered

(* Dirty the boot with a different device first (another seed, a
   shorter run), then compare a started run with a fresh
   [Kernel.create] one.  [check] sees the started kernel and the code
   generation it began at. *)
let restore_matches_fresh ?(check = fun _ ~gen0:_ _ -> ()) name fw =
  let seed = 21 in
  let boot = Kernel.boot fw in
  ignore
    (drive ~ms:160 (Kernel.start ~policy:Kernel.Disable ~seed:(seed + 1) boot));
  let k = Kernel.start ~policy:Kernel.Disable ~seed boot in
  let gen0 = Memory.code_gen k.Kernel.machine.M.mem in
  let restored = drive k in
  let fresh = drive (Kernel.create ~policy:Kernel.Disable ~seed fw) in
  check_same name fresh restored;
  check k ~gen0 restored

let test_restore_steady_day () =
  List.iter
    (fun mode -> restore_matches_fresh (Iso.name mode) (steady_fw mode))
    Iso.all

let attack_fw (attack : Attacks.t) mode =
  match Attacks.build_cell ~attack ~mode with
  | Attacks.Built { fw; targets; _ } -> (fw, targets)
  | Attacks.Rejected msg ->
    Alcotest.failf "%s rejected: %s" attack.Attacks.atk_name msg

(* [bin_probe_below] stores into its own code segment, below the code
   that runs.  The same payload aimed at the victim's [handle_button]
   turns that handler into a bare [ret], rewriting code the kernel has
   predecoded.  The carrier stores every 50 ms, and the shorter device
   that dirties the boot runs the rewritten handler after the last
   store (the button at 155 ms): a restore that kept its block would
   run it in the next device's button at 40 ms. *)
let test_restore_code_writes () =
  let below = Attacks.find "bin_probe_below" in
  let open Amulet_mcu in
  let ret = Opcode.(Fmt1 (MOV, Word.W16, S_indirect_inc 1, D_reg 0)) in
  let ret_word = List.hd (Encode.encode ret) in
  let store v a = Opcode.(Fmt1 (MOV, Word.W16, S_immediate v, D_absolute a)) in
  let into_code =
    {
      below with
      Attacks.atk_name = "bin_probe_below aimed at predecoded code";
      atk_payload =
        Some (fun t -> [ store ret_word t.Attacks.t_victim_entry; ret ]);
      atk_target = (fun t -> Some t.Attacks.t_victim_entry);
    }
  in
  List.iter
    (fun (attack, value, hits_blocks) ->
      let fw, targets = attack_fw attack Iso.No_isolation in
      let target = Option.get (attack.Attacks.atk_target targets) in
      restore_matches_fresh attack.Attacks.atk_name fw ~check:(fun k ~gen0 _ ->
          let m = k.Kernel.machine in
          Alcotest.(check int) "the store landed" value
            (M.mem_checked_read m Word.W16 target);
          Alcotest.(check bool) "whether it hit predecoded code" hits_blocks
            (Memory.code_gen m.M.mem > gen0)))
    [ (below, Attacks.attack_value, false); (into_code, ret_word, true) ]

let test_restore_faulting () =
  let fw, _ = attack_fw (Attacks.find "bin_wild_write_os") Iso.Mpu_assisted in
  restore_matches_fresh "bin_wild_write_os" fw ~check:(fun _ ~gen0:_ f ->
      Alcotest.(check bool) "the attacker faulted" true
        (List.exists
           (fun r ->
             match r.Kernel.dr_outcome with
             | Kernel.App_fault _ -> true
             | Kernel.Ok | Kernel.No_handler -> false)
           f.f_records))

let test_restore_drops_hooks () =
  let boot = Kernel.boot (steady_fw Iso.Mpu_assisted) in
  let k = Kernel.start boot in
  let steps = ref 0 and events = ref 0 in
  M.add_step_hook k.Kernel.machine (fun _ -> incr steps);
  M.add_watch k.Kernel.machine (fun _ -> incr events);
  ignore (drive k);
  Alcotest.(check bool) "hooks armed on the first kernel fire" true
    (!steps > 0 && !events > 0);
  steps := 0;
  events := 0;
  ignore (drive (Kernel.start boot));
  Alcotest.(check int) "step hook silent on the next kernel" 0 !steps;
  Alcotest.(check int) "watcher silent on the next kernel" 0 !events

(* The same device twice on one boot: the second run reuses every
   block the first one predecoded and builds none. *)
let test_restore_keeps_blocks () =
  List.iter
    (fun mode ->
      let boot = Kernel.boot (steady_fw mode) in
      let k = Kernel.start ~seed:3 boot in
      ignore (drive k);
      let blocks = k.Kernel.machine.M.blocks in
      let first = Hashtbl.copy blocks in
      ignore (drive (Kernel.start ~seed:3 boot));
      let name = Iso.name mode in
      Alcotest.(check int) (name ^ ": no block added") (Hashtbl.length first)
        (Hashtbl.length blocks);
      Alcotest.(check bool) (name ^ ": every block kept") true
        (Hashtbl.fold
           (fun pc b ok ->
             ok
             && match Hashtbl.find_opt first pc with
                | Some b0 -> b0 == b
                | None -> false)
           blocks true))
    Iso.all

(* --- minor words per dispatch ---------------------------------- *)

(* The kernel's dispatch path on warm kernels, as perfbench drives it:
   gateheavy's [post] plus [dispatch_next] behind a standing backlog,
   and restored steady_day devices ([Kernel.start] and [run_for_ms] on
   one boot).  Counts are deterministic for a given compiler. *)

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let gate_words mode =
  let fw = Aft.build ~mode [ Suite.spec_for mode Suite.gateheavy ] in
  let k = Kernel.create ~scenario:Amulet_os.Sensors.Walking fw in
  ignore (Kernel.run_for_ms k 5);
  let post () = Kernel.post k ~delay_ms:0 ~app:0 (Event.Button 1) ~arg:1 in
  let press () =
    post ();
    ignore (Kernel.dispatch_next k)
  in
  for _ = 1 to 4 do
    post ()
  done;
  for _ = 1 to 200 do
    press ()
  done;
  let n = 500 in
  words_during (fun () ->
      for _ = 1 to n do
        press ()
      done)
  /. float n

let fleet_words mode =
  let boot = Kernel.boot (steady_fw mode) in
  let device seed =
    Kernel.run_for_ms
      (Kernel.start ~policy:Kernel.Disable
         ~scenario:Amulet_os.Sensors.Daily_mix ~seed boot)
      1000
  in
  ignore (device 1);
  let dispatches = ref 0 in
  let words =
    words_during (fun () ->
        for seed = 2 to 9 do
          dispatches := !dispatches + List.length (device seed)
        done)
  in
  words /. float !dispatches

(* Every mode's figure, and a failure naming each one over [limit]. *)
let check_words what ~limit words =
  let over =
    List.filter_map
      (fun mode ->
        let w = words mode in
        if w > float limit then
          Some (Printf.sprintf "%s %.1f" (Iso.name mode) w)
        else None)
      Iso.all
  in
  if over <> [] then
    Alcotest.failf "%s: minor words per dispatch over %d: %s" what limit
      (String.concat ", " over)

let test_gate_words () = check_words "gateheavy" ~limit:100 gate_words

let test_fleet_words () =
  check_words "restored steady_day" ~limit:50 fleet_words

let () =
  let q = Test_support.Seed.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "scenario",
        [
          Alcotest.test_case "parse steady_day example" `Quick
            test_parse_steady_day;
          Alcotest.test_case "parse sensor_storm example" `Quick
            test_parse_sensor_storm;
          Alcotest.test_case "parse errors carry line numbers" `Quick
            test_parse_errors;
          Alcotest.test_case "defaults and comments" `Quick
            test_parse_defaults_and_comments;
          Alcotest.test_case "device seed derivation" `Quick test_device_seed;
          Alcotest.test_case "weighted round-robin modes" `Quick
            test_device_mode_round_robin;
        ] );
      ( "sched",
        [
          Alcotest.test_case "map preserves order" `Quick test_sched_map_order;
          Alcotest.test_case "fold_shards partitions the input" `Quick
            test_sched_fold_shards_partition;
          Alcotest.test_case "progress reporting" `Quick test_sched_progress;
        ] );
      ( "shards",
        [
          q prop_shard_partition_order;
          q prop_shard_merge_assoc;
          q prop_shard_merge_unshared;
          q prop_agg_partition;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "determinism across runs" `Quick
            test_fleet_determinism;
          Alcotest.test_case "determinism across job counts" `Quick
            test_fleet_jobs_invariant;
          Alcotest.test_case "seed sensitivity" `Quick
            test_fleet_seed_sensitivity;
          Alcotest.test_case "per-mode coverage" `Quick test_fleet_mode_coverage;
          Alcotest.test_case "device oracle verdicts" `Quick
            test_device_violations;
        ] );
      ( "restore",
        [
          Alcotest.test_case "steady_day firmware, all modes" `Quick
            test_restore_steady_day;
          Alcotest.test_case "code writes" `Quick test_restore_code_writes;
          Alcotest.test_case "faulting app" `Quick test_restore_faulting;
          Alcotest.test_case "hooks end with their kernel" `Quick
            test_restore_drops_hooks;
          Alcotest.test_case "blocks kept" `Quick test_restore_keeps_blocks;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "gateheavy dispatch" `Quick test_gate_words;
          Alcotest.test_case "restored steady_day dispatch" `Quick
            test_fleet_words;
        ] );
    ]
