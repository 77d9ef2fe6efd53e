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
    Device.run ~fw ~scenario:small_scenario
      ~seed:small_scenario.Scenario.sc_seed ~index:0
  in
  Alcotest.(check (list string)) "healthy device has no violations" []
    (Device.violations r);
  let sick = { r with Device.r_os_intact = false; r_alive = false } in
  Alcotest.(check int) "corrupt device reports both probes" 2
    (List.length (Device.violations sick))

let () =
  let q = QCheck_alcotest.to_alcotest in
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
    ]
