(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation, printing measured values next to the paper's,
   then runs Bechamel microbenchmarks of the underlying simulator.

   Usage: main.exe [quick] [snapshot]
     quick     — cut iteration counts for CI
     snapshot  — only emit the BENCH_gateheavy.json perf snapshot *)

module Iso = Amulet_cc.Isolation
module Ex = Amulet_iso.Experiments
module Paper = Amulet_iso.Paper

let quick = Array.exists (fun a -> a = "quick") Sys.argv
let snapshot_only = Array.exists (fun a -> a = "snapshot") Sys.argv

let line = String.make 72 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let mode_label mode = Iso.name mode

let run_table1 () =
  section
    "Table 1: average cycle count for basic memory isolation operations";
  let runs = if quick then 20 else 200 in
  let rows = Ex.table1 ~runs () in
  Printf.printf "%-18s %22s %22s\n" "" "Memory access" "Context switch";
  Printf.printf "%-18s %10s %10s  %10s %10s\n" "Method" "measured" "paper"
    "measured" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-18s %10.1f %10d  %10.1f %10d\n"
        (mode_label r.Ex.t1_mode) r.Ex.t1_mem_access
        (Paper.table1 r.Ex.t1_mode Paper.Memory_access)
        r.Ex.t1_ctx_switch
        (Paper.table1 r.Ex.t1_mode Paper.Context_switch))
    rows;
  (* shape check: orderings match the paper *)
  let value_of sel mode = sel (List.find (fun r -> r.Ex.t1_mode = mode) rows) in
  let sorted_by sel =
    List.sort (fun a b -> compare (value_of sel a) (value_of sel b)) Iso.all
  in
  let mem_order = sorted_by (fun r -> r.Ex.t1_mem_access) in
  Printf.printf "\nmemory-access ordering: %s (paper: %s)\n"
    (if mem_order = Paper.expected_order_memory_access then "MATCHES paper"
     else "differs: " ^ String.concat " < " (List.map mode_label mem_order))
    (String.concat " < "
       (List.map mode_label Paper.expected_order_memory_access));
  let ctx_order = sorted_by (fun r -> r.Ex.t1_ctx_switch) in
  Printf.printf "context-switch ordering: %s (paper: %s)\n"
    (if ctx_order = Paper.expected_order_context_switch then "MATCHES paper"
     else "differs: " ^ String.concat " < " (List.map mode_label ctx_order))
    (String.concat " < "
       (List.map mode_label Paper.expected_order_context_switch))

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

let run_figure2 () =
  section "Figure 2: isolation overhead (cycles/week) and battery impact";
  let warmup_ms = if quick then 61_000 else 120_000 in
  let rows = Ex.figure2 ~warmup_ms () in
  Printf.printf "%-14s %-18s %16s %14s\n" "Application" "Method"
    "Gcycles/week" "battery %";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-18s %16.3f %14.4f\n" r.Ex.f2_app
        (mode_label r.Ex.f2_mode)
        (r.Ex.f2_overhead_cycles /. 1e9)
        r.Ex.f2_battery_percent)
    rows;
  let worst =
    List.fold_left (fun acc r -> max acc r.Ex.f2_battery_percent) 0.0 rows
  in
  Printf.printf
    "\nworst battery impact: %.4f %% — paper claims every app < %.1f %%: %s\n"
    worst Paper.figure2_battery_bound_percent
    (if worst < Paper.figure2_battery_bound_percent then "HOLDS"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

let run_figure3 () =
  section "Figure 3: percentage slowdown vs no isolation";
  let runs = if quick then 20 else 200 in
  let rows = Ex.figure3 ~runs () in
  Printf.printf "%-18s %-18s %14s %12s\n" "Benchmark" "Method" "cycles/run"
    "slowdown %";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-18s %14.0f %12.1f\n" r.Ex.f3_case
        (mode_label r.Ex.f3_mode) r.Ex.f3_cycles r.Ex.f3_slowdown_percent)
    rows;
  List.iter
    (fun case ->
      let get mode =
        (List.find (fun r -> r.Ex.f3_case = case && r.Ex.f3_mode = mode) rows)
          .Ex.f3_slowdown_percent
      in
      Printf.printf "%-18s MPU %s software-only (paper: MPU wins)\n" case
        (if get Iso.Mpu_assisted < get Iso.Software_only then "beats"
         else "does NOT beat"))
    [ "Activity Case 1"; "Activity Case 2"; "Quicksort" ]

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper *)

let run_ablations () =
  section "Ablation: shadow return-address stack (paper sec. 5 proposal)";
  let runs = if quick then 20 else 100 in
  let rows = Ex.ablation_shadow ~runs () in
  Printf.printf "%-18s %14s %14s %14s\n" "Method" "plain cyc" "shadow cyc"
    "cyc/call";
  List.iter
    (fun r ->
      Printf.printf "%-18s %14.0f %14.0f %14.1f\n" (mode_label r.Ex.sh_mode)
        r.Ex.sh_plain r.Ex.sh_hardened r.Ex.sh_per_call)
    rows;
  section "Ablation: projected advanced MPU (all-memory, 4+ regions)";
  let adv = Ex.ablation_advanced_mpu ~runs () in
  Printf.printf
    "memory access %.1f cycles (the no-isolation figure: all checks\n\
     removed), context switch %.1f cycles (MPU reconfiguration remains).\n\
     Removing the residual lower-bound checks saves %.0f %% of the MPU\n\
     method's per-access cost — the paper's 'negate the need for our\n\
     compiler-inserted bounds checks'.\n"
    adv.Ex.am_mem_access adv.Ex.am_ctx_switch adv.Ex.am_mem_saving_percent;
  section "Ablation: bounds-check elision by value-range analysis";
  let rows = Ex.ablation_elision ~runs () in
  Printf.printf "%-18s %14s %14s %10s %10s\n" "Method" "all guards"
    "elided cyc" "sites" "saving %";
  List.iter
    (fun r ->
      Printf.printf "%-18s %14.0f %14.0f %10d %10.1f\n"
        (mode_label r.Ex.el_mode) r.Ex.el_full r.Ex.el_elided r.Ex.el_sites
        r.Ex.el_saving_percent)
    rows;
  Printf.printf
    "(guards whose address the analysis proves in-bounds are dropped;\n\
     the independent binary verifier re-checks the resulting images)\n";
  section "Ablation: gate-pointer validation elision by static certification";
  let rows = Ex.ablation_gate_cert ~runs () in
  Printf.printf "%-18s %14s %14s %10s  %s\n" "Method" "dynamic cyc"
    "certified cyc" "cyc/gate" "services";
  List.iter
    (fun r ->
      Printf.printf "%-18s %14.0f %14.0f %10.1f  %s\n"
        (mode_label r.Ex.gc_mode) r.Ex.gc_dynamic r.Ex.gc_certified
        r.Ex.gc_per_gate
        (String.concat ", " r.Ex.gc_services))
    rows;
  Printf.printf
    "(the gate-provenance pass proves every pointer the app hands the\n\
     OS in-region, so the kernel skips its per-call range validation)\n"

(* ------------------------------------------------------------------ *)
(* Perf-trajectory snapshot: BENCH_gateheavy.json.

   One machine-readable record per PR so the simulator-speed and
   gate-cost trajectories are diffable run-over-run (the ROADMAP's
   "≥10x cycles/sec" predecode target needs a baseline to beat).
   Simulator throughput is host-dependent; the gate-cost cycle counts
   are deterministic simulated values and must only improve. *)

let snapshot_path = "BENCH_gateheavy.json"

let run_gateheavy_snapshot () =
  section ("Perf snapshot: gateheavy microbench -> " ^ snapshot_path);
  let module Runner = Amulet_bench_core.Runner in
  let module Schema = Amulet_bench_core.Schema in
  let doc, _runs = Runner.run ~quick () in
  Format.printf "%a@?" Runner.pp_doc doc;
  Schema.write_file snapshot_path doc;
  Printf.printf "snapshot written to %s (schema %d)\n" snapshot_path
    doc.Schema.d_schema

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator substrate *)

let loop_machine () =
  let open Amulet_mcu in
  let m = Machine.create () in
  let words =
    List.concat_map Encode.encode
      [
        Opcode.Fmt1
          (Opcode.MOV, Word.W16, Opcode.S_immediate 500, Opcode.D_reg 5);
        Opcode.Fmt1 (Opcode.SUB, Word.W16, Opcode.S_immediate 1, Opcode.D_reg 5);
        Opcode.Jump (Opcode.JNE, -2);
        Opcode.Fmt1
          (Opcode.MOV, Word.W16, Opcode.S_immediate 1,
           Opcode.D_absolute Machine.halt_port);
      ]
  in
  Machine.load_words m ~addr:0x4400 words;
  Machine.set_reset_vector m 0x4400;
  m

let bechamel_benches () =
  let open Bechamel in
  let bench_step =
    Test.make ~name:"simulator: 1000-instruction loop"
      (Staged.stage (fun () ->
           let m = loop_machine () in
           Amulet_mcu.Machine.reset m;
           ignore (Amulet_mcu.Machine.run m)))
  in
  let bench_encode =
    let i =
      Amulet_mcu.Opcode.Fmt1
        ( Amulet_mcu.Opcode.ADD,
          Amulet_mcu.Word.W16,
          Amulet_mcu.Opcode.S_indexed (5, 12),
          Amulet_mcu.Opcode.D_reg 6 )
    in
    Test.make ~name:"isa: encode+decode round-trip"
      (Staged.stage (fun () ->
           let ws = Amulet_mcu.Encode.encode i in
           ignore (Amulet_mcu.Decode.decode_words ws)))
  in
  let bench_compile =
    Test.make ~name:"compiler: pedometer end-to-end"
      (Staged.stage (fun () ->
           ignore
             (Amulet_cc.Driver.compile ~prefix:"pedometer"
                ~mode:Iso.Mpu_assisted Amulet_apps.App_sources.pedometer)))
  in
  let bench_firmware =
    Test.make ~name:"aft: single-app firmware build"
      (Staged.stage (fun () ->
           ignore
             (Amulet_aft.Aft.build ~mode:Iso.Mpu_assisted
                [
                  {
                    Amulet_aft.Aft.name = "pedometer";
                    source = Amulet_apps.App_sources.pedometer;
                  };
                ])))
  in
  let tests = [ bench_step; bench_encode; bench_compile; bench_firmware ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.2 else 1.0))
      ()
  in
  section "Simulator microbenchmarks (Bechamel, monotonic clock)";
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "%-42s %14.0f ns/run\n" name t
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        ols)
    tests

let () =
  Printf.printf
    "Reproduction harness: Hardin et al., \"Application Memory Isolation on \
     Ultra-Low-Power MCUs\" (USENIX ATC 2018)\n";
  if quick then Printf.printf "(quick mode: reduced iteration counts)\n";
  if not snapshot_only then begin
    run_table1 ();
    run_figure3 ();
    run_figure2 ();
    run_ablations ()
  end;
  run_gateheavy_snapshot ();
  if not snapshot_only then bechamel_benches ();
  Printf.printf "\ndone.\n"
