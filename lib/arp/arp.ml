module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Iso = Amulet_cc.Isolation

type handler_profile = {
  hp_handler : string;
  hp_events_per_week : float;
  hp_cycles_per_event : float;
  hp_accesses_per_event : float;
  hp_api_calls_per_event : float;
}

type app_profile = {
  ap_app : string;
  ap_mode : Iso.mode;
  ap_handlers : handler_profile list;
  ap_cycles_per_week : float;
}

let seconds_per_week = 7.0 *. 86_400.0

(* Events per week for each handler, from the app's live subscriptions
   and timers after its init handler ran. *)
let rates_of_app (app : Os.Kernel.app_state) =
  let sensor_rates =
    List.map
      (fun (sensor, hz) ->
        ( Os.Event.handler_name (Os.Event.Sensor_sample sensor),
          float_of_int hz *. seconds_per_week ))
      app.Os.Kernel.subscriptions
  in
  let timer_rate =
    match app.Os.Kernel.timers with
    | [] -> []
    | timers ->
      let per_week =
        List.fold_left
          (fun acc (_, period_ms) ->
            acc +. (seconds_per_week *. 1000.0 /. float_of_int period_ms))
          0.0 timers
      in
      [ ("handle_timer", per_week) ]
  in
  sensor_rates @ timer_rate

let profile_app ?(scenario = Os.Sensors.Walking) ?(warmup_ms = 90_000) ?obs
    ~mode (app : Apps.app) =
  let fw = Aft.build ~mode [ Apps.spec_for mode app ] in
  let k = Os.Kernel.create ~scenario ?obs fw in
  let records = Os.Kernel.run_for_ms k warmup_ms in
  let st = Os.Kernel.app_by_name k app.Apps.name in
  (match st.Os.Kernel.last_fault with
  | Some f ->
    failwith (Printf.sprintf "ARP: %s faulted during profiling: %s" app.Apps.name f)
  | None -> ());
  let stats = Os.Kernel.handler_stats st records in
  let handlers =
    List.filter_map
      (fun (handler, events_per_week) ->
        match List.assoc_opt handler stats with
        | Some s ->
          let n = float_of_int s.Os.Kernel.hs_count in
          Some
            {
              hp_handler = handler;
              hp_events_per_week = events_per_week;
              hp_cycles_per_event = float_of_int s.Os.Kernel.hs_cycles /. n;
              hp_accesses_per_event =
                float_of_int (s.Os.Kernel.hs_reads + s.Os.Kernel.hs_writes) /. n;
              hp_api_calls_per_event =
                float_of_int s.Os.Kernel.hs_api_calls /. n;
            }
        | _ -> None)
      (rates_of_app st)
  in
  let cycles_per_week =
    List.fold_left
      (fun acc h -> acc +. (h.hp_events_per_week *. h.hp_cycles_per_event))
      0.0 handlers
  in
  {
    ap_app = app.Apps.name;
    ap_mode = mode;
    ap_handlers = handlers;
    ap_cycles_per_week = cycles_per_week;
  }

let overhead_cycles_per_week ~baseline profiled =
  max 0.0 (profiled.ap_cycles_per_week -. baseline.ap_cycles_per_week)

type static_sites = {
  ss_function : string;
  ss_checked : int;
  ss_elided : int;
  ss_static : int;
  ss_api_calls : int;
}

let static_view ~mode (app : Apps.app) =
  let spec = Apps.spec_for mode app in
  let cu =
    Amulet_cc.Driver.compile ~prefix:spec.Aft.name ~mode
      ~analyze:Amulet_analysis.Range.analyze spec.Aft.source
  in
  List.map
    (fun fi ->
      let s = fi.Amulet_cc.Codegen.fi_sites in
      {
        ss_function = fi.Amulet_cc.Codegen.fi_name;
        ss_checked = s.Amulet_cc.Codegen.checked;
        ss_elided = s.Amulet_cc.Codegen.elided;
        ss_static = fi.Amulet_cc.Codegen.fi_static_sites;
        ss_api_calls = List.length fi.Amulet_cc.Codegen.fi_api_calls;
      })
    cu.Amulet_cc.Driver.infos
