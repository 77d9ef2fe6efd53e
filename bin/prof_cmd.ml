(* amulet prof: profiler reports.

     report  — span statistics (count/total/avg/p50/p99/max), counter
               maxima/percentiles, instant counts, faults of a trace
               written by `amulet sim --trace` (Chrome trace_event JSON
               or JSONL)
     energy  — cycle-exact energy attribution per PC class, recovered
               from the profile.<class>.cycles counters the kernel
               publishes at every dispatch boundary, with a weekly
               battery-impact extrapolation
     arp     — the Amulet Resource Profiler report for one suite app:
               per-handler measured costs, static check-site counts,
               weekly extrapolation and battery impact, per isolation
               mode

   JSONL traces stream through the aggregator line by line, so
   arbitrarily long runs are summarised in constant memory. *)

module Iso = Amulet_cc.Isolation
module Summary = Amulet_obs.Summary
module Agg = Amulet_obs.Agg
module Obs = Amulet_obs.Obs
module Profile = Amulet_obs.Profile
module Arp = Amulet_arp.Arp
module Energy = Amulet_arp.Energy
module Apps = Amulet_apps.Suite

let read_trace file =
  let agg = Cli.with_input file Summary.agg_of_channel in
  if Agg.records agg = 0 then Cli.bad_inputf "%s: no trace records found" file;
  agg

let report_cmd file () =
  Format.printf "%a" Summary.pp_agg (read_trace file);
  0

(* Final value of each profile.<class>.cycles counter = the class's
   cumulative cycle total at the last dispatch of the trace.  Classes
   whose counter the trace never carried (older recordings predate
   some categories) come back in [missing] so the report can say the
   attribution is partial instead of silently attributing 0. *)
let class_cycles agg =
  List.partition_map
    (fun c ->
      match Agg.counter agg (Profile.counter_name c) with
      | Some cnt -> Left (c, cnt.Agg.c_last)
      | None -> Right c)
    Profile.categories

let energy_cmd file () =
  let agg = read_trace file in
  match class_cycles agg with
  | [], _ ->
    Cli.bad_inputf
      "%s: no profile.<class>.cycles counters — record the trace with \
       `amulet sim --profile --trace ...`"
      file
  | cats, missing ->
    let total_cycles = List.fold_left (fun a (_, c) -> a + c) 0 cats in
    let energies = Energy.per_category cats in
    Format.printf "energy attribution (%d attributed cycles, %.1f ms at \
                   %.0f MHz):@."
      total_cycles
      (float_of_int total_cycles /. Energy.clock_hz *. 1e3)
      (Energy.clock_hz /. 1e6);
    let joules_str j = Format.asprintf "%a" Energy.pp_joules j in
    List.iter
      (fun ((cat, cycles), (_, joules)) ->
        Format.printf "  %-14s %12d cycles  %12s  (%5.1f %%)@."
          (Profile.category_name cat)
          cycles (joules_str joules)
          (if total_cycles = 0 then 0.0
           else 100.0 *. float_of_int cycles /. float_of_int total_cycles))
      (List.combine cats energies);
    let overhead_j = Energy.isolation_overhead_joules cats in
    let overhead_cycles =
      List.fold_left
        (fun acc (c, cycles) ->
          if List.mem c Energy.overhead_categories then acc + cycles else acc)
        0 cats
    in
    Format.printf "  %-14s %12d cycles  %12s  (isolation overhead)@."
      "guards+gates+MPU" overhead_cycles (joules_str overhead_j);
    if missing <> [] then
      Format.printf
        "warning: trace carries no counter for: %s — attribution is \
         partial (older trace format?)@."
        (String.concat ", " (List.map Profile.category_name missing));
    (* extrapolate the overhead share to a week of wall time *)
    (match Agg.time_range agg with
    | Some (lo, hi) when hi > lo ->
      let elapsed = float_of_int (hi - lo) in
      let per_week =
        float_of_int overhead_cycles *. Energy.cycles_per_week /. elapsed
      in
      Format.printf
        "projected isolation overhead: %.3f Gcycles/week, battery impact \
         %.4f %% (paper bound: < 0.5 %%)@."
        (per_week /. 1e9)
        (Energy.battery_impact_percent ~overhead_cycles_per_week:per_week)
    | _ -> ());
    0

(* ------------------------------------------------------------------ *)
(* arp *)

(* Profile one mode while streaming the kernel's dispatch spans to a
   JSONL buffer, then hand back both the ARP aggregate and the parsed
   trace records. *)
let profile_with_trace ~warmup ~mode app =
  let obs = Obs.create () in
  let buf = Buffer.create 4096 in
  Obs.add_sink obs (Obs.jsonl_buffer_sink buf);
  let p = Arp.profile_app ~warmup_ms:warmup ~obs ~mode app in
  Obs.close obs;
  (p, Summary.of_string (Buffer.contents buf))

let arp_cmd app_name warmup () =
  let app = Cli.suite_app app_name in
  let baseline, baseline_records =
    profile_with_trace ~warmup ~mode:Iso.No_isolation app
  in
  Format.printf "ARP report for %s (%d ms warm-up)@." app.Apps.display_name
    warmup;
  List.iter
    (fun mode ->
      let p, records =
        if mode = Iso.No_isolation then (baseline, baseline_records)
        else profile_with_trace ~warmup ~mode app
      in
      Format.printf "@.[%s]@." (Iso.name mode);
      List.iter
        (fun h ->
          Format.printf
            "  %-20s %10.0f ev/week  %7.1f cyc/ev  %6.1f accesses  %4.1f \
             API calls@."
            h.Arp.hp_handler h.Arp.hp_events_per_week h.Arp.hp_cycles_per_event
            h.Arp.hp_accesses_per_event h.Arp.hp_api_calls_per_event)
        p.Arp.ap_handlers;
      let overhead = Arp.overhead_cycles_per_week ~baseline p in
      Format.printf
        "  weekly: %.3f Gcycles total, %.3f Gcycles isolation overhead, \
         %.4f %% battery@."
        (p.Arp.ap_cycles_per_week /. 1e9)
        (overhead /. 1e9)
        (Energy.battery_impact_percent ~overhead_cycles_per_week:overhead);
      (* ARP-view per-state accounting, when the app has a state
         machine — read back from the same run's trace records *)
      (match Summary.per_state_accounting records with
      | [] -> ()
      | states ->
        Format.printf "  per-state accounting (ARP-view):@.";
        List.iter
          (fun ((state, handler), (count, cycles, accesses)) ->
            Format.printf
              "    state %d / %-16s %5d events, avg %5d cycles, %4d accesses@."
              state handler count
              (cycles / max 1 count)
              (accesses / max 1 count))
          states);
      Format.printf "  static check sites (AFT phase 1):@.";
      List.iter
        (fun s ->
          Format.printf "    %-24s %3d checked, %3d elided, %3d static, %2d API@."
            s.Arp.ss_function s.Arp.ss_checked s.Arp.ss_elided
            s.Arp.ss_static s.Arp.ss_api_calls)
        (Arp.static_view ~mode app))
    Iso.all;
  0

open Cmdliner

let trace =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Trace file (Chrome JSON or JSONL).")

let app_name =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Suite app name (e.g. $(b,pedometer)).")

let warmup =
  Arg.(
    value & opt int 90_000
    & info [ "warmup" ] ~docv:"MS" ~doc:"Profiling warm-up in virtual ms.")

let cmd =
  Cli.group "prof" ~doc:"profiler reports: saved traces and the ARP view"
    [
      Cli.cmd "report"
        ~doc:"aggregate a trace into per-span/counter statistics"
        Term.(const report_cmd $ trace);
      Cli.cmd "energy"
        ~doc:"attribute energy to PC classes from a profiled trace"
        Term.(const energy_cmd $ trace);
      Cli.cmd "arp" ~doc:"Amulet Resource Profiler report for one application"
        Term.(const arp_cmd $ app_name $ warmup);
    ]
