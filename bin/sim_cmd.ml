(* amulet sim: build a firmware from WearC sources (or named suite
   apps) and run it under the kernel model for a stretch of virtual
   time, reporting dispatches, faults, display and log state. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Obs = Amulet_obs.Obs

let run mode scenario seconds trace trace_format profile apps () =
  let fw = Cli.build ~mode apps in
  let obs =
    if trace <> None || profile then begin
      let obs = Obs.create () in
      (match trace with
      | Some path ->
        let oc = open_out path in
        Obs.add_sink obs
          (match trace_format with
          | `Chrome -> Obs.chrome_sink oc
          | `Jsonl -> Obs.jsonl_sink oc)
      | None -> ());
      if profile then Obs.enable_profile obs fw;
      Some obs
    end
    else None
  in
  let k = Os.Kernel.create ~scenario ?obs fw in
  let records = Os.Kernel.run_for_ms k (seconds * 1000) in
  Format.printf "mode %s, scenario driven for %d virtual seconds@."
    (Iso.name mode) seconds;
  Format.printf "%d events dispatched, %d total cycles@."
    (List.length records)
    (Amulet_mcu.Machine.cycles k.Os.Kernel.machine);
  Array.iter
    (fun (st : Os.Kernel.app_state) ->
      Format.printf "@.app %-16s %s@." st.Os.Kernel.build.Aft.ab_name
        (if st.Os.Kernel.enabled then "running" else "DISABLED");
      (match st.Os.Kernel.last_fault with
      | Some f -> Format.printf "  last fault: %s@." f
      | None -> ());
      List.iter
        (fun (handler, (s : Os.Kernel.handler_stats)) ->
          Format.printf "  %-18s %6d events, avg %5d cycles@." handler
            s.Os.Kernel.hs_count
            (s.Os.Kernel.hs_cycles / max 1 s.Os.Kernel.hs_count))
        (Os.Kernel.handler_stats st records);
      match st.Os.Kernel.last_forensics with
      | Some dump -> Format.printf "%s" dump
      | None -> ())
    k.Os.Kernel.apps;
  Format.printf "@.display:@.";
  for i = 0 to 3 do
    Format.printf "  |%-32s|@." (Os.Kernel.display_line k i)
  done;
  let log = Os.Kernel.log_contents k in
  Format.printf "log: %d bytes@." (String.length log);
  (match obs with
  | Some obs ->
    (match Obs.profile obs with
    | Some p ->
      Format.printf "@.%a" Amulet_obs.Profile.pp_report
        (Amulet_obs.Profile.report p ~machine:k.Os.Kernel.machine)
    | None -> ());
    Obs.close obs;
    (match trace with
    | Some path -> Format.printf "trace written to %s@." path
    | None -> ())
  | None -> ());
  let unrecovered = Os.Kernel.unrecovered_faults k in
  List.iter
    (fun (app, fault) ->
      Format.eprintf "unrecovered fault: app %s disabled (%s)@." app fault)
    unrecovered;
  Cli.status (unrecovered = [])

open Cmdliner

let scenario =
  Arg.(
    value
    & opt
        (enum
           [
             ("resting", Os.Sensors.Resting);
             ("walking", Os.Sensors.Walking);
             ("running", Os.Sensors.Running);
             ("daily", Os.Sensors.Daily_mix);
             ("fall", Os.Sensors.Fall_at 5_000);
           ])
        Os.Sensors.Walking
    & info [ "w"; "scenario" ] ~docv:"SCENARIO"
        ~doc:"Sensor scenario: resting, walking, running, daily, fall.")

let seconds =
  Arg.(
    value & opt int 60
    & info [ "t"; "seconds" ] ~docv:"SECONDS"
        ~doc:"Virtual seconds to simulate.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write an execution trace to $(docv).")

let trace_format =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace format: $(b,chrome) (trace_event JSON, loadable in \
           Perfetto) or $(b,jsonl) (one record per line).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Classify every executed cycle into app code / bounds guards / OS \
           gate / MPU reconfig / kernel and print the breakdown.")

let cmd =
  Cli.cmd "sim" ~doc:"run applications on the simulated Amulet platform"
    Term.(
      const run $ Cli.mode $ scenario $ seconds $ trace $ trace_format
      $ profile $ Cli.apps)
