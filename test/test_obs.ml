(* Observability subsystem tests: JSON round-trips, trace sinks,
   profiler cycle-exactness, and fault forensics. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json
module Profile = Amulet_obs.Profile
module Summary = Amulet_obs.Summary
module Forensics = Amulet_obs.Forensics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S in:\n%s" what sub s

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "say \"hi\"\n\t\\done");
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("flags", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("empty", Json.Arr []) ]);
      ]
  in
  Alcotest.(check bool)
    "parse inverts print" true
    (Json.parse (Json.to_string v) = v);
  check_int "int member" (-42)
    (match Json.member "n" (Json.parse (Json.to_string v)) with
    | Some j -> Option.value ~default:0 (Json.to_int j)
    | None -> Alcotest.fail "missing n");
  (match Json.parse "{\"a\": 1} trailing" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted")

let sample_records =
  [
    Obs.Span
      {
        name = "handle_accel";
        cat = "dispatch";
        ts = 100;
        dur = 250;
        tid = 0;
        args = [ ("outcome", Obs.Vstr "ok"); ("reads", Obs.Vint 12) ];
      };
    Obs.Instant
      { name = "api_read_accel"; cat = "api"; ts = 180; tid = 0; args = [] };
    Obs.Counter { name = "queue_depth"; ts = 200; value = 3 };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Obs.record_of_json (Obs.json_of_record r) with
      | Some r' when r' = r -> ()
      | Some _ -> Alcotest.fail "record changed through json"
      | None -> Alcotest.fail "record dropped through json")
    sample_records

(* The same records must survive a full write-to-sink / parse-back trip
   in both trace formats. *)
let test_sink_roundtrip () =
  let via make_sink =
    let buf = Buffer.create 256 in
    let sink = make_sink buf in
    List.iter sink.Obs.output sample_records;
    sink.Obs.close ();
    Summary.of_string (Buffer.contents buf)
  in
  Alcotest.(check bool)
    "chrome round-trip" true
    (via Obs.chrome_buffer_sink = sample_records);
  Alcotest.(check bool)
    "jsonl round-trip" true
    (via Obs.jsonl_buffer_sink = sample_records)

(* ------------------------------------------------------------------ *)
(* Profiler *)

let counter_app =
  "int count = 0;\n\
   void handle_init(int arg) { api_subscribe(0, 10); }\n\
   void handle_accel(int arg) {\n\
  \  int buf[4];\n\
  \  int n = api_read_accel(buf, 4);\n\
  \  count += n;\n\
   }\n"

let run_profiled ~mode =
  let fw = Aft.build ~mode [ { Aft.name = "counter"; source = counter_app } ] in
  let obs = Obs.create () in
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let p = match Obs.profile obs with Some p -> p | None -> assert false in
  (Profile.report p ~machine:k.Os.Kernel.machine, k)

let cat r c = try List.assoc c r.Profile.r_cats with Not_found -> 0

let test_profiler_exact_mpu () =
  let r, k = run_profiled ~mode:Iso.Mpu_assisted in
  check_int "classified = machine cycles" (M.cycles k.Os.Kernel.machine)
    r.Profile.r_total;
  check_int "report agrees with itself" r.Profile.r_machine r.Profile.r_total;
  check_bool "app code ran" true (cat r Profile.App_code > 0);
  check_bool "MPU reconfig cycles present" true (cat r Profile.Mpu_config > 0);
  check_bool "OS gate cycles present" true (cat r Profile.Os_gate > 0);
  let app = List.assoc "counter" (List.map (fun a -> (a.Profile.ar_app, a)) r.Profile.r_apps) in
  check_bool "per-handler cycles attributed" true
    (List.mem_assoc "handle_accel" app.Profile.ar_handlers)

let test_profiler_no_isolation_has_no_guards () =
  let r, k = run_profiled ~mode:Iso.No_isolation in
  check_int "classified = machine cycles" (M.cycles k.Os.Kernel.machine)
    r.Profile.r_total;
  check_int "no bounds guards" 0 (cat r Profile.Guard);
  check_int "no MPU reconfig" 0 (cat r Profile.Mpu_config)

(* ------------------------------------------------------------------ *)
(* Aggregation: sharding a record stream over k aggregates and merging
   must reproduce the single-aggregate result exactly *)

module Agg = Amulet_obs.Agg
module Hist = Amulet_obs.Hist

let collect_records ~mode =
  let fw = Aft.build ~mode [ { Aft.name = "counter"; source = counter_app } ] in
  let obs = Obs.create () in
  let acc = ref [] in
  Obs.add_sink obs { Obs.output = (fun r -> acc := r :: !acc); close = ignore };
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  Obs.close obs;
  List.rev !acc

let test_agg_partition_merge () =
  let records = collect_records ~mode:Iso.Mpu_assisted in
  check_bool "run produced records" true (List.length records > 50);
  let whole = Summary.aggregate records in
  let shards = Array.init 3 (fun _ -> Agg.create ()) in
  List.iteri (fun i r -> Agg.add shards.(i mod 3) r) records;
  let merged =
    Array.fold_left (fun acc a -> Agg.merge acc a) (Agg.create ()) shards
  in
  check_int "record count" (Agg.records whole) (Agg.records merged);
  Alcotest.(check (option (pair int int)))
    "time range" (Agg.time_range whole) (Agg.time_range merged);
  let keys a = List.map fst (Agg.spans a) in
  Alcotest.(check (list (pair string string)))
    "span keys" (keys whole) (keys merged);
  List.iter2
    (fun (k, hw) (_, hm) ->
      if not (Hist.equal hw hm) then
        Alcotest.failf "span %s/%s histogram differs after merge" (fst k)
          (snd k))
    (Agg.spans whole) (Agg.spans merged);
  List.iter2
    (fun (n, (cw : Agg.counter)) (_, (cm : Agg.counter)) ->
      check_bool (n ^ " counter hist") true (Hist.equal cw.Agg.c_hist cm.Agg.c_hist);
      check_int (n ^ " last value") cw.Agg.c_last cm.Agg.c_last;
      check_int (n ^ " max value") cw.Agg.c_max cm.Agg.c_max)
    (Agg.counters whole) (Agg.counters merged);
  Alcotest.(check (list (pair (pair string string) int)))
    "instants" (Agg.instants whole) (Agg.instants merged)

(* the percentile a merged aggregate reports must equal the
   single-aggregate ground truth for the same underlying records *)
let test_agg_percentiles_survive_merge () =
  let records = collect_records ~mode:Iso.Software_only in
  let whole = Summary.aggregate records in
  let a = Agg.create () and b = Agg.create () in
  List.iteri (fun i r -> Agg.add (if i mod 2 = 0 then a else b) r) records;
  let merged = Agg.merge a b in
  List.iter
    (fun ((cat, name), h) ->
      let h' =
        match Agg.span_hist merged ~cat ~name with
        | Some h' -> h'
        | None -> Alcotest.failf "span %s/%s lost in merge" cat name
      in
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "%s/%s p%.0f" cat name (q *. 100.0))
            (Hist.quantile h q) (Hist.quantile h' q))
        [ 0.5; 0.9; 0.99 ])
    (Agg.spans whole)

(* ------------------------------------------------------------------ *)
(* Forensics *)

let victim_app =
  "int secret = 12345;\n\
   void handle_init(int arg) { api_subscribe(1, 5); }\n\
   void handle_ppg(int arg) { secret += 1; }\n"

let evil_src target_addr =
  Printf.sprintf
    "void handle_init(int arg) { api_set_timer(100); }\n\
     void handle_timer(int arg) {\n\
    \  int *p = (int*)0x%04X;\n\
    \  *p = 666;\n\
     }\n"
    target_addr

let test_forensics_on_fault () =
  (* evil writes into the victim's data region; under MPU-assisted
     isolation the dispatch faults and the kernel snapshots forensics *)
  let specs target =
    [ { Aft.name = "victim"; source = victim_app };
      { Aft.name = "evil"; source = evil_src target } ]
  in
  let probe = Aft.build ~mode:Iso.Mpu_assisted (specs 0xBEEE) in
  let secret_addr =
    Amulet_link.Image.symbol probe.Aft.fw_image "victim$secret"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted (specs secret_addr) in
  let obs = Obs.create () in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let evil = Os.Kernel.app_by_name k "evil" in
  check_bool "evil faulted" true (evil.Os.Kernel.fault_count > 0);
  match evil.Os.Kernel.last_forensics with
  | None -> Alcotest.fail "no forensics captured"
  | Some dump ->
    check_contains "header" "=== fault forensics ===" dump;
    check_contains "registers" "registers:" dump;
    check_contains "mpu state" "mpu:" dump;
    check_contains "ring" "trace events (oldest first):" dump;
    (* the victim keeps incrementing its secret; what matters is that
       evil's 666 never landed *)
    check_bool "victim's secret intact" true
      (M.mem_checked_read k.Os.Kernel.machine Amulet_mcu.Word.W16 secret_addr
       >= 12345)

(* The owner annotation, on a synthetic MPU violation aimed at a known
   region. *)
let test_forensics_owner () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [ { Aft.name = "victim"; source = victim_app } ]
  in
  let obs = Obs.create () in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let secret_addr = Amulet_link.Image.symbol fw.Aft.fw_image "victim$secret" in
  let stop =
    M.Faulted
      (M.Mpu_violation
         {
           access = Amulet_mcu.Mpu.Dwrite;
           addr = secret_addr;
           pc = 0x4400;
           segment = Amulet_mcu.Mpu.Seg2;
         })
  in
  let dump =
    Forensics.report ~fw ~ring:(Obs.ring obs) ~stop k.Os.Kernel.machine
  in
  check_contains "owner" "owned by app 'victim' data/stack" dump;
  check_contains "address" (Printf.sprintf "%04X" secret_addr) dump

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "sink round-trip" `Quick test_sink_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "mpu mode exact" `Quick test_profiler_exact_mpu;
          Alcotest.test_case "no-isolation has no guards" `Quick
            test_profiler_no_isolation_has_no_guards;
        ] );
      ( "agg",
        [
          Alcotest.test_case "partition+merge = whole" `Quick
            test_agg_partition_merge;
          Alcotest.test_case "percentiles survive merge" `Quick
            test_agg_percentiles_survive_merge;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "captured on fault" `Quick test_forensics_on_fault;
          Alcotest.test_case "owner annotation" `Quick test_forensics_owner;
        ] );
    ]
