(* amulet fleet: fleet-scale simulation service.  Parses a scenario
   file, instantiates N independent Machine+Kernel devices across
   worker domains, drives each with deterministic seeded event
   traffic, and merges the per-domain shards into one aggregate
   summary (per-mode p50/p99 dispatch + latency cycles, faults/sec,
   cycles/sec, energy).  Any isolation-oracle violation anywhere in
   the fleet fails the check. *)

module Fleet = Amulet_fleet_core.Fleet
module Scenario = Amulet_fleet_core.Scenario
module Json = Amulet_obs.Json

let progress_bar () =
  let last = ref (-1) in
  fun ~done_ ~total ->
    (* redraw at most once per percent: the callback runs under the
       scheduler's lock on the worker that finished the batch *)
    let pct = done_ * 100 / max 1 total in
    if pct <> !last then begin
      last := pct;
      Printf.eprintf "\rfleet: %d/%d devices (%d%%)%!" done_ total pct;
      if done_ = total then prerr_newline ()
    end

let run_one ~jobs ~progress scenario =
  Fleet.run ~jobs
    ?progress:(if progress then Some (progress_bar ()) else None)
    scenario

let run file devices duration_ms seed jobs out progress scaling () =
  let scenario =
    match Scenario.parse (Cli.read_file file) with
    | Error e -> Cli.bad_inputf "%s: %s" file e
    | Ok s -> (
      match Scenario.override ?devices ?duration_ms ?seed s with
      | Ok s -> s
      | Error e -> Cli.bad_inputf "%s: override: %s" file e)
  in
  Format.printf "%a@." Scenario.pp scenario;
  match scaling with
  | [] ->
    let s = run_one ~jobs ~progress scenario in
    Format.printf "%a" Fleet.pp s;
    (match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Fleet.summary_json s));
          output_char oc '\n');
      Format.printf "aggregate summary written to %s@." path
    | None -> ());
    Cli.status (Fleet.ok s)
  | counts ->
    (* domain-scaling sweep: same scenario+seed at each job count;
       the aggregates must be bit-identical, only wall time moves *)
    let runs =
      List.map (fun j -> (j, run_one ~jobs:j ~progress scenario)) counts
    in
    let reference = Json.to_string (Fleet.summary_json (snd (List.hd runs))) in
    let identical =
      List.for_all
        (fun (_, s) -> Json.to_string (Fleet.summary_json s) = reference)
        runs
    in
    let base_elapsed = (snd (List.hd runs)).Fleet.fs_elapsed_s in
    Format.printf "@.domain scaling (%s, %d devices):@."
      scenario.Scenario.sc_name scenario.Scenario.sc_devices;
    Format.printf "  %8s %10s %14s %9s@." "jobs" "wall s" "devices/sec"
      "speedup";
    List.iter
      (fun (j, s) ->
        Format.printf "  %8d %10.2f %14.1f %8.2fx@." j s.Fleet.fs_elapsed_s
          (float s.Fleet.fs_devices /. max 1e-9 s.Fleet.fs_elapsed_s)
          (base_elapsed /. max 1e-9 s.Fleet.fs_elapsed_s))
      runs;
    Format.printf "  aggregates %s across job counts@."
      (if identical then "bit-identical" else "DIFFER");
    Cli.status (identical && List.for_all (fun (_, s) -> Fleet.ok s) runs)

open Cmdliner

let file =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO" ~doc:"Scenario file (see examples/scenarios/).")

let devices =
  Arg.(
    value
    & opt (some int) None
    & info [ "devices" ] ~docv:"N" ~doc:"Override the scenario's fleet size.")

let duration =
  Arg.(
    value
    & opt (some int) None
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Override the scenario's per-device virtual duration.")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the scenario's base seed.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic aggregate-summary JSON to $(docv) \
           (bit-identical for a fixed scenario+seed).")

let progress =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Report device completion on stderr.")

let scaling =
  Arg.(
    value
    & opt (list Cli.jobs_conv) []
    & info [ "scaling" ] ~docv:"J1,J2,.."
        ~doc:
          "Run the same scenario at each domain count, print the \
           devices/sec scaling table, and verify the aggregates are \
           bit-identical.")

let cmd =
  Cli.cmd "fleet" ~doc:"fleet-scale wearable simulation service"
    Term.(
      const run $ file $ devices $ duration $ seed $ Cli.jobs $ out $ progress
      $ scaling)
