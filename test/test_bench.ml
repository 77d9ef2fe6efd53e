(* Benchmark-harness tests: robust statistics, BENCH_*.json schema v2
   round-trip and the refusal of any other schema, and the noise-aware
   regression comparator (must flag a synthetic 20% regression and
   pass a self-compare). *)

module Stats = Amulet_bench_core.Stats
module Schema = Amulet_bench_core.Schema
module Hist = Amulet_obs.Hist
module Json = Amulet_obs.Json

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_median () =
  check_float "odd length" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even length" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "empty" 0.0 (Stats.median [||])

let test_mad () =
  (* median 3, deviations [2;1;0;1;2] -> mad 1 *)
  check_float "mad" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "constant data" 0.0 (Stats.mad [| 7.0; 7.0; 7.0 |])

let test_summarize () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_int "n" 5 s.Stats.n;
  check_float "median" 3.0 s.Stats.median;
  check_float "mean" 3.0 s.Stats.mean;
  check_bool "ci brackets the median" true
    (s.Stats.ci_lo <= s.Stats.median && s.Stats.median <= s.Stats.ci_hi);
  let one = Stats.summarize [| 42.0 |] in
  check_float "single trial has zero-width ci" 42.0 one.Stats.ci_lo;
  check_float "single trial has zero-width ci (hi)" 42.0 one.Stats.ci_hi

(* ------------------------------------------------------------------ *)
(* Schema *)

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.record h) values;
  h

let mk_mode ?(cpd = 2000.0) ?(energy = Some 6.5e-7) name rates =
  {
    Schema.m_mode = name;
    m_rate =
      {
        Schema.r_summary = Stats.summarize (Array.of_list rates);
        r_trials = rates;
      };
    m_cycles_per_dispatch = cpd;
    m_latency = Some (hist_of [ 8000; 8100; 8200; 9000 ]);
    m_handler = Some (hist_of [ 2000; 2000; 2010 ]);
    m_class_cycles =
      [ ("app_code", 90_000); ("os_gate", 150_000); ("mpu_config", 12_000) ];
    m_energy_per_dispatch_j = energy;
  }

let sample_doc () =
  {
    Schema.d_schema = 2;
    d_bench = "gateheavy";
    d_quick = true;
    d_trials = 3;
    d_dispatches = 300;
    d_warmup = 50;
    d_host = [ ("ocaml", "5.1.1"); ("os", "Unix") ];
    d_modes =
      [
        mk_mode "no-isolation" [ 1.5e6; 1.52e6; 1.49e6 ];
        mk_mode ~cpd:3150.0 "mpu" [ 2.0e6; 2.05e6; 1.98e6 ];
      ];
    d_gate =
      {
        Schema.g_ctx_switch = [ ("no-isolation", 36.3); ("mpu", 67.8) ];
        g_cert =
          [
            {
              Schema.c_mode = "mpu";
              c_dynamic = 3278.0;
              c_certified = 3150.0;
              c_per_gate = 8.0;
              c_services = [ "api_log_append"; "api_read_accel" ];
            };
          ];
      };
  }

let test_v2_roundtrip () =
  let d = sample_doc () in
  match Schema.of_json (Schema.to_json d) with
  | Error e -> Alcotest.failf "v2 re-read failed: %s" e
  | Ok d' ->
    check_int "schema" 2 d'.Schema.d_schema;
    check_int "trials" d.Schema.d_trials d'.Schema.d_trials;
    Alcotest.(check (list (pair string string)))
      "host metadata" d.Schema.d_host d'.Schema.d_host;
    List.iter2
      (fun (m : Schema.mode_row) (m' : Schema.mode_row) ->
        Alcotest.(check string) "mode" m.Schema.m_mode m'.Schema.m_mode;
        check_float "cycles/dispatch" m.Schema.m_cycles_per_dispatch
          m'.Schema.m_cycles_per_dispatch;
        check_bool "latency hist survives" true
          (match (m.Schema.m_latency, m'.Schema.m_latency) with
          | Some a, Some b -> Hist.equal a b
          | _ -> false);
        check_bool "handler hist survives" true
          (match (m.Schema.m_handler, m'.Schema.m_handler) with
          | Some a, Some b -> Hist.equal a b
          | _ -> false);
        Alcotest.(check (list (pair string int)))
          "class cycles" m.Schema.m_class_cycles m'.Schema.m_class_cycles;
        check_bool "energy survives" true
          (match (m.Schema.m_energy_per_dispatch_j, m'.Schema.m_energy_per_dispatch_j) with
          | Some a, Some b -> Float.abs (a -. b) < 1e-12
          | _ -> false))
      d.Schema.d_modes d'.Schema.d_modes;
    check_int "gate cert rows" 1 (List.length d'.Schema.d_gate.Schema.g_cert)

(* Schema 1 has no reader: a document claiming it is refused by name,
   not misread as schema 2. *)
let test_v1_rejected () =
  let v1 = Json.parse {|{"bench":"gateheavy","schema":1,"simulator":[]}|} in
  match Schema.of_json v1 with
  | Error e -> Alcotest.(check string) "error" "unknown schema 1" e
  | Ok _ -> Alcotest.fail "schema-1 document accepted"

(* ------------------------------------------------------------------ *)
(* Comparator *)

let compare_default ~current ~baseline =
  Schema.compare_docs ~current ~baseline ~det_threshold_pct:10.0
    ~rate_threshold_pct:None

let test_self_compare_passes () =
  let d = sample_doc () in
  let vs = compare_default ~current:d ~baseline:d in
  check_bool "verdicts produced" true (vs <> []);
  check_bool "no regression against self" false (Schema.regressed vs)

let test_synthetic_regression_detected () =
  let baseline = sample_doc () in
  (* 20% more simulated cycles per dispatch in every mode *)
  let current =
    {
      baseline with
      Schema.d_modes =
        List.map
          (fun (m : Schema.mode_row) ->
            {
              m with
              Schema.m_cycles_per_dispatch = m.Schema.m_cycles_per_dispatch *. 1.2;
            })
          baseline.Schema.d_modes;
    }
  in
  let vs = compare_default ~current ~baseline in
  check_bool "20% regression detected" true (Schema.regressed vs);
  let offenders =
    List.filter (fun v -> v.Schema.v_regressed) vs
  in
  check_bool "every mode flagged" true (List.length offenders >= 2);
  List.iter
    (fun v ->
      Alcotest.(check string) "metric" "cycles/dispatch" v.Schema.v_metric;
      check_bool "~20% change reported" true
        (Float.abs (v.Schema.v_change_pct -. 20.0) < 0.5))
    offenders

let test_improvement_not_flagged () =
  let baseline = sample_doc () in
  let current =
    {
      baseline with
      Schema.d_modes =
        List.map
          (fun (m : Schema.mode_row) ->
            {
              m with
              Schema.m_cycles_per_dispatch = m.Schema.m_cycles_per_dispatch *. 0.8;
            })
          baseline.Schema.d_modes;
    }
  in
  check_bool "improvement passes" false
    (Schema.regressed (compare_default ~current ~baseline))

let test_rate_noise_gate () =
  let mk rates = { (sample_doc ()) with Schema.d_modes = [ mk_mode "mpu" rates ] } in
  let baseline = mk [ 2.00e6; 2.01e6; 1.99e6 ] in
  (* 15% slower but trials so noisy that 3 sigma swallows the drop *)
  let noisy = mk [ 1.7e6; 2.4e6; 1.1e6 ] in
  let vs =
    Schema.compare_docs ~current:noisy ~baseline ~det_threshold_pct:10.0
      ~rate_threshold_pct:(Some 10.0)
  in
  let rate_v =
    List.find (fun v -> v.Schema.v_metric = "cycles/sec") vs
  in
  check_bool "noisy drop does not gate" false rate_v.Schema.v_regressed;
  (* same 15% drop with tight trials must gate *)
  let tight = mk [ 1.70e6; 1.71e6; 1.69e6 ] in
  let vs =
    Schema.compare_docs ~current:tight ~baseline ~det_threshold_pct:10.0
      ~rate_threshold_pct:(Some 10.0)
  in
  let rate_v =
    List.find (fun v -> v.Schema.v_metric = "cycles/sec") vs
  in
  check_bool "clean drop gates" true rate_v.Schema.v_regressed

let test_latency_regression_detected () =
  let baseline = sample_doc () in
  let current =
    {
      baseline with
      Schema.d_modes =
        List.map
          (fun (m : Schema.mode_row) ->
            { m with Schema.m_latency = Some (hist_of [ 11000; 11500; 12000 ]) })
          baseline.Schema.d_modes;
    }
  in
  let vs = compare_default ~current ~baseline in
  check_bool "latency p99 blowup flagged" true
    (List.exists
       (fun v -> v.Schema.v_metric = "latency p99" && v.Schema.v_regressed)
       vs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "mad" `Quick test_mad;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "schema",
        [
          Alcotest.test_case "v2 round-trip" `Quick test_v2_roundtrip;
          Alcotest.test_case "v1 rejected" `Quick test_v1_rejected;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self-compare passes" `Quick
            test_self_compare_passes;
          Alcotest.test_case "synthetic 20% regression" `Quick
            test_synthetic_regression_detected;
          Alcotest.test_case "improvement passes" `Quick
            test_improvement_not_flagged;
          Alcotest.test_case "rate noise gate" `Quick test_rate_noise_gate;
          Alcotest.test_case "latency regression" `Quick
            test_latency_regression_detected;
        ] );
    ]
