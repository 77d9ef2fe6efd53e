(* The paper's evaluation as a deterministic report: every table and
   figure next to the paper's value, the ablations beyond the paper,
   and gateheavy's cycles and energy per dispatch.  Every number is a
   simulated cycle count or derived from one, so the output depends
   on the code alone: `dune runtest` diffs the quick run's stdout
   against main.expected.  Host time is perfbench's to measure.

   Usage: main.exe [quick]
     quick     — cut iteration counts (the pinned run) *)

module Iso = Amulet_cc.Isolation
module Ex = Amulet_iso.Experiments
module Paper = Amulet_iso.Paper
module Apps = Amulet_apps.Suite
module Energy = Amulet_arp.Energy

let quick =
  match Sys.argv with
  | [| _ |] -> false
  | [| _; "quick" |] -> true
  | _ ->
    prerr_endline "usage: main.exe [quick]";
    exit 2

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
(* gateheavy: the OS-gate stress app, one button dispatch per run *)

let run_gateheavy () =
  section "gateheavy: cycles and energy per dispatch";
  let runs = if quick then 20 else 200 in
  Printf.printf "%-18s %16s %14s\n" "Method" "cycles/dispatch" "nJ/dispatch";
  List.iter
    (fun mode ->
      let cycles =
        Ex.measure_handler ~mode ~app:Apps.gateheavy ~arg:1 ~runs ()
      in
      Printf.printf "%-18s %16.1f %14.1f\n" (mode_label mode) cycles
        (cycles *. Energy.joules_per_cycle *. 1e9))
    Iso.all;
  Printf.printf "(energy is cycles x %.1f nJ, the active energy per cycle)\n"
    (Energy.joules_per_cycle *. 1e9)

let () =
  Printf.printf
    "Reproduction harness: Hardin et al., \"Application Memory Isolation on \
     Ultra-Low-Power MCUs\" (USENIX ATC 2018)\n";
  if quick then Printf.printf "(quick mode: reduced iteration counts)\n";
  run_table1 ();
  run_figure3 ();
  run_figure2 ();
  run_ablations ();
  run_gateheavy ();
  Printf.printf "\ndone.\n"
