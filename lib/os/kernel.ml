module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module Map = Amulet_mcu.Memory_map
module Aft = Amulet_aft.Aft
module Apis = Amulet_cc.Apis
module Iso = Amulet_cc.Isolation
module Obs = Amulet_obs.Obs
module Forensics = Amulet_obs.Forensics
module Profile = Amulet_obs.Profile

type fault_policy = Disable | Restart of int

type outcome = Ok | No_handler | App_fault of string

type dispatch_record = {
  dr_app : int;
  dr_kind : Event.kind;
  dr_cycles : int;
  dr_latency : int;
  dr_reads : int;
  dr_writes : int;
  dr_api_calls : int;
  dr_outcome : outcome;
}

type handler_stats = {
  hs_count : int;
  hs_cycles : int;
  hs_reads : int;
  hs_writes : int;
  hs_api_calls : int;
}

type app_state = {
  build : Aft.app_build;
  mutable enabled : bool;
  mutable fault_count : int;
  mutable restarts : int;
  mutable last_fault : string option;
  mutable last_forensics : string option;
  mutable subscriptions : (Event.sensor * int) list;
  mutable timers : (int * int) list;
  certified : bool array;
  valid : (int * int) list;
  state_addr : int option;
      (* address of the app's "state" global, when it declares one *)
  handlers : int array;
      (* by Event.handler_index: the handler's address, or -1 *)
}

type t = {
  fw : Aft.firmware;
  machine : M.t;
  api : Api.t;
  queue : Event_queue.t;
  apps : app_state array;
  policy : fault_policy;
  obs : Obs.t option;
  mutable now : int;
  mutable vbase : int;
  mutable current_app : int;
}

(* What [start] needs of one app, derived from the image at boot. *)
type app_facts = {
  af_build : Aft.app_build;
  af_certified : bool array;
  af_valid : (int * int) list;
  af_state_addr : int option;
  af_handlers : int array;
}

type boot = {
  b_fw : Aft.firmware;
  b_obs : Obs.t option;
  b_machine : M.t;
  b_snapshot : M.snapshot;
  b_apps : app_facts array;
}

let handler_fuel = 20_000_000

let now_ms t = t.now / Event.cycles_per_ms

(* Virtual-time position of the machine's cycle counter: trace records
   all share the virtual timeline (idle gaps between dispatches show
   up as gaps in Perfetto, not as overlapping spans). *)
let vnow t = t.vbase + M.cycles t.machine

let profile t = match t.obs with Some obs -> Obs.profile obs | None -> None

let queue_gauge t =
  match t.obs with
  | Some obs ->
    Obs.counter obs ~name:"queue_depth" ~ts:t.now (Event_queue.size t.queue)
  | None -> ()

let post t ~delay_ms ~app kind ~arg =
  Event_queue.push t.queue
    ~at:(t.now + Event.ms_to_cycles delay_ms)
    ~app kind ~arg;
  queue_gauge t

(* Validation bounds the OS applies to app-supplied pointers: in the
   separate-stack modes an app may only hand out addresses inside its
   own data segment; in the shared-stack modes its locals live on the
   SRAM stack, so that region is acceptable too. *)
let valid_ranges mode (build : Aft.app_build) =
  let lay = build.Aft.ab_layout in
  let data = (lay.Amulet_aft.Layout.data_base, lay.Amulet_aft.Layout.data_limit) in
  if Iso.separate_stacks mode then [ data ]
  else (* shared stack: the app's locals live in SRAM *)
    [ (Map.sram_start, Map.sram_limit); data ]

(* The effect a service raised, applied in place for the app being
   dispatched. *)
let apply_effect t e =
  let app = t.apps.(t.current_app) in
  match e with
  | Api.Set_timer { id; period_ms } ->
    app.timers <- (id, period_ms) :: app.timers;
    post t ~delay_ms:period_ms ~app:app.build.Aft.ab_layout.Amulet_aft.Layout.index
      (Event.Timer_fired id) ~arg:id
  | Api.Cancel_timer id -> app.timers <- List.remove_assoc id app.timers
  | Api.Subscribe { sensor; rate_hz } ->
    if not (List.mem_assoc sensor app.subscriptions) then begin
      app.subscriptions <- (sensor, rate_hz) :: app.subscriptions;
      post t ~delay_ms:(1000 / rate_hz)
        ~app:app.build.Aft.ab_layout.Amulet_aft.Layout.index
        (Event.Sensor_sample sensor)
        ~arg:(Event.sensor_to_int sensor)
    end
  | Api.Unsubscribe sensor ->
    app.subscriptions <- List.remove_assoc sensor app.subscriptions
  | Api.Pointer_fault { service; addr; len } ->
    app.last_fault <-
      Some (Printf.sprintf "pointer %04X+%d rejected by %s" addr len service)

let app_facts (fw : Aft.firmware) build =
  let image = fw.Aft.fw_image in
  let state_sym = Iso.mangle ~prefix:build.Aft.ab_name "state" in
  let names = Apis.certified_services image ~app:build.Aft.ab_name in
  {
    af_build = build;
    af_certified =
      Array.map (fun s -> List.mem s.Apis.name names) Apis.services;
    af_valid = valid_ranges fw.Aft.fw_mode build;
    af_state_addr =
      (if Amulet_link.Image.has_symbol image state_sym then
         Some (Amulet_link.Image.symbol image state_sym)
       else None);
    af_handlers =
      Array.map
        (fun h -> Option.value ~default:(-1) (Aft.handler_addr build h))
        Event.handler_names;
  }

let boot ?obs fw =
  let machine = M.create () in
  (* attach before boot so the profiler sees every executed cycle and
     its totals equal [Machine.cycles] exactly *)
  (match obs with Some o -> Obs.attach o machine | None -> ());
  Amulet_link.Image.load fw.Aft.fw_image machine;
  M.reset machine;
  (match M.run ~fuel:100 machine with
  | M.Halted -> ()
  | other ->
    failwith
      (Format.asprintf "kernel boot failed: %a" M.pp_stop_reason other));
  {
    b_fw = fw;
    b_obs = obs;
    b_machine = machine;
    b_snapshot = M.snapshot machine;
    b_apps = Array.of_list (List.map (app_facts fw) fw.Aft.fw_apps);
  }

let start ?(policy = Disable) ?(scenario = Sensors.Daily_mix) ?seed b =
  let machine = b.b_machine in
  M.restore machine b.b_snapshot;
  let api = Api.create (Sensors.create ?seed scenario) in
  let apps =
    Array.map
      (fun f ->
        {
          build = f.af_build;
          enabled = true;
          fault_count = 0;
          restarts = 0;
          last_fault = None;
          last_forensics = None;
          subscriptions = [];
          timers = [];
          certified = f.af_certified;
          valid = f.af_valid;
          state_addr = f.af_state_addr;
          handlers = f.af_handlers;
        })
      b.b_apps
  in
  let t =
    {
      fw = b.b_fw; machine; api;
      queue = Event_queue.create ();
      apps; policy; obs = b.b_obs;
      now = M.cycles machine;
      vbase = 0;
      current_app = -1;
    }
  in
  let apply e = apply_effect t e in
  machine.M.host_call <-
    (fun m svc ->
      if t.current_app >= 0 then begin
        let app = t.apps.(t.current_app) in
        (match t.obs with
        | Some obs ->
          let name =
            if svc >= 0 && svc < Array.length Apis.services then
              Apis.services.(svc).Apis.name
            else Printf.sprintf "svc%d" svc
          in
          Obs.instant obs ~cat:"api" ~tid:t.current_app ~name ~ts:(vnow t) ()
        | None -> ());
        Api.dispatch t.api m ~certified:app.certified ~valid:app.valid
          ~now_ms:(now_ms t) ~svc ~apply
      end);
  (* every app starts with an init event *)
  Array.iteri
    (fun i _ -> post t ~delay_ms:0 ~app:i Event.Init ~arg:0)
    apps;
  t

let create ?policy ?scenario ?seed ?obs fw =
  start ?policy ?scenario ?seed (boot ?obs fw)

let handle_fault t (app : app_state) msg =
  app.fault_count <- app.fault_count + 1;
  app.last_fault <- Some msg;
  (* An MPU violation raises a PUC on real silicon, which clears the
     MPU configuration; the next dispatch reprograms it. *)
  Amulet_mcu.Mpu.reset t.machine.M.mpu;
  let index = app.build.Aft.ab_layout.Amulet_aft.Layout.index in
  match t.policy with
  | Disable ->
    app.enabled <- false;
    Event_queue.clear_app t.queue index
  | Restart limit ->
    if app.restarts >= limit then begin
      app.enabled <- false;
      Event_queue.clear_app t.queue index
    end
    else begin
      app.restarts <- app.restarts + 1;
      app.subscriptions <- [];
      app.timers <- [];
      Event_queue.clear_app t.queue index;
      post t ~delay_ms:1 ~app:index Event.Init ~arg:0
    end

let dispatch_event t (e : Event.t) ~latency =
  let app = t.apps.(e.Event.app) in
  let haddr =
    if app.enabled then app.handlers.(Event.handler_index e.Event.kind) else -1
  in
  if haddr < 0 then
    {
      dr_app = e.Event.app; dr_kind = e.Event.kind; dr_cycles = 0;
      dr_latency = latency; dr_reads = 0; dr_writes = 0; dr_api_calls = 0;
      dr_outcome = No_handler;
    }
  else begin
    let m = t.machine in
    let regs = M.regs m in
    (* the ARP view: the dispatch span names the state the app's
       machine was in when the event arrived *)
    let state_before =
      match (t.obs, app.state_addr) with
      | Some _, Some a -> Some (M.mem_checked_read m Amulet_mcu.Word.W16 a)
      | _ -> None
    in
    let cycles0 = M.cycles m in
    let reads0 = m.M.stats.Amulet_mcu.Trace.data_reads in
    let writes0 = m.M.stats.Amulet_mcu.Trace.data_writes in
    let api0 = t.api.Api.calls in
    m.M.halted <- false;
    m.M.sw_fault <- None;
    R.set regs 12 e.Event.arg;
    R.set regs 15 haddr;
    R.set_pc regs app.build.Aft.ab_tramp;
    t.current_app <- e.Event.app;
    let prof = profile t in
    (match prof with
    | Some p ->
      Profile.set_context p ~app:app.build.Aft.ab_name
        ~handler:(Event.handler_name e.Event.kind)
    | None -> ());
    let stop = M.run ~fuel:handler_fuel m in
    (match prof with Some p -> Profile.clear_context p | None -> ());
    t.current_app <- -1;
    let outcome =
      match stop with
      | M.Halted -> Ok
      | M.Sw_fault code ->
        App_fault (Printf.sprintf "software check fault %d" code)
      | M.Faulted f -> App_fault (Format.asprintf "%a" M.pp_fault f)
      | M.Out_of_fuel -> App_fault "runaway handler"
    in
    (match outcome with
    | App_fault msg ->
      (* forensics first: [handle_fault] resets the MPU, destroying
         the very configuration the dump must show *)
      (match t.obs with
      | Some obs ->
        let forensics =
          Forensics.report ~fw:t.fw ~ring:(Obs.ring obs) ~stop m
        in
        app.last_forensics <- Some forensics;
        Obs.instant obs ~cat:"kernel" ~tid:e.Event.app ~name:"fault"
          ~ts:(vnow t)
          ~args:
            [ ("message", Obs.Vstr msg); ("forensics", Obs.Vstr forensics) ]
          ()
      | None -> ());
      handle_fault t app msg
    | Ok | No_handler -> ());
    let record =
      {
        dr_app = e.Event.app;
        dr_kind = e.Event.kind;
        dr_cycles = M.cycles m - cycles0;
        dr_latency = latency;
        dr_reads = m.M.stats.Amulet_mcu.Trace.data_reads - reads0;
        dr_writes = m.M.stats.Amulet_mcu.Trace.data_writes - writes0;
        dr_api_calls = t.api.Api.calls - api0;
        dr_outcome = outcome;
      }
    in
    (match t.obs with
    | Some obs ->
      let outcome_str =
        match outcome with
        | Ok -> "ok"
        | No_handler -> "no_handler"
        | App_fault msg -> "fault: " ^ msg
      in
      let args =
        [
          ("app", Obs.Vstr app.build.Aft.ab_name);
          ("kind", Obs.Vstr (Event.kind_name e.Event.kind));
          ("outcome", Obs.Vstr outcome_str);
          ("reads", Obs.Vint record.dr_reads);
          ("writes", Obs.Vint record.dr_writes);
          ("api_calls", Obs.Vint record.dr_api_calls);
        ]
        @
        match state_before with
        | Some st -> [ ("state", Obs.Vint st) ]
        | None -> []
      in
      Obs.span obs ~cat:"dispatch" ~tid:e.Event.app ~args
        ~name:(Event.handler_name e.Event.kind) ~ts:t.now
        ~dur:record.dr_cycles ()
    | None -> ());
    record
  end

(* Re-arm periodic sources after delivering one of their events. *)
let rearm t (e : Event.t) =
  let app = t.apps.(e.Event.app) in
  if app.enabled then
    match e.Event.kind with
    | Event.Sensor_sample sensor -> (
      match List.assoc_opt sensor app.subscriptions with
      | Some rate_hz ->
        post t ~delay_ms:(Int.max 1 (1000 / rate_hz)) ~app:e.Event.app
          e.Event.kind ~arg:e.Event.arg
      | None -> ())
    | Event.Timer_fired id -> (
      match List.assoc_opt id app.timers with
      | Some period_ms ->
        post t ~delay_ms:period_ms ~app:e.Event.app e.Event.kind ~arg:id
      | None -> ())
    | Event.Init | Event.Button _ | Event.Tick -> ()

let dispatch_next t =
  match Event_queue.pop t.queue with
  | None -> None
  | Some e ->
    (* how late the event runs relative to its scheduled time *)
    let latency = Int.max 0 (t.now - e.Event.at) in
    (match t.obs with
    | Some obs ->
      Obs.counter obs ~name:"dispatch_latency_cycles" ~ts:t.now latency
    | None -> ());
    queue_gauge t;
    t.now <- Int.max t.now e.Event.at;
    t.vbase <- t.now - M.cycles t.machine;
    let before = M.cycles t.machine in
    let record = dispatch_event t e ~latency in
    let elapsed = M.cycles t.machine - before in
    t.now <- t.now + elapsed;
    rearm t e;
    (* publish cumulative per-category cycle totals at every dispatch
       boundary: energy attribution becomes recoverable from the trace
       alone (no-op unless a profiler and a sink are armed) *)
    (match t.obs with
    | Some obs -> Obs.emit_profile_counters obs ~ts:t.now
    | None -> ());
    Some record

(* The records in dispatch order, the list built front to back. *)
let[@tail_mod_cons] rec dispatch_until t deadline =
  match Event_queue.peek t.queue with
  | Some e when e.Event.at <= deadline -> (
    match dispatch_next t with
    | Some r -> r :: dispatch_until t deadline
    | None -> [])
  | _ ->
    t.now <- deadline;
    []

let run_for_ms t ms = dispatch_until t (t.now + Event.ms_to_cycles ms)

let app_by_name t name =
  match
    Array.to_list t.apps
    |> List.find_opt (fun a -> a.build.Aft.ab_name = name)
  with
  | Some a -> a
  | None -> raise Not_found

let handler_stats app records =
  let index = app.build.Aft.ab_layout.Amulet_aft.Layout.index in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.dr_app = index && r.dr_outcome <> No_handler then begin
        let h = Event.handler_name r.dr_kind in
        let s =
          Option.value (Hashtbl.find_opt tbl h)
            ~default:
              { hs_count = 0; hs_cycles = 0; hs_reads = 0; hs_writes = 0;
                hs_api_calls = 0 }
        in
        Hashtbl.replace tbl h
          {
            hs_count = s.hs_count + 1;
            hs_cycles = s.hs_cycles + r.dr_cycles;
            hs_reads = s.hs_reads + r.dr_reads;
            hs_writes = s.hs_writes + r.dr_writes;
            hs_api_calls = s.hs_api_calls + r.dr_api_calls;
          }
      end)
    records;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let display_line t n = t.api.Api.display.(n land 3)
let log_contents t = Buffer.contents t.api.Api.log

let os_intact t =
  let lay = t.fw.Aft.fw_layout in
  let lo = lay.Amulet_aft.Layout.os_code_base in
  Amulet_mcu.Memory.unchanged t.machine.M.mem ~lo
    ~hi:(lo + lay.Amulet_aft.Layout.os_code_size)

(* Post-fault kernel-liveness probe: deliver one Button event to the
   app and confirm the kernel can still dispatch it cleanly.  Other
   queued events may be delivered on the way; the probe caps the
   number of dispatches so a runaway queue cannot hang it. *)
let liveness_probe t ~app =
  if app < 0 || app >= Array.length t.apps then false
  else begin
    post t ~delay_ms:0 ~app (Event.Button 1) ~arg:1;
    let rec go budget =
      if budget = 0 then false
      else
        match dispatch_next t with
        | None -> false
        | Some r ->
          if r.dr_app = app && r.dr_kind = Event.Button 1 then (
            match r.dr_outcome with
            | Ok | No_handler -> t.apps.(app).enabled
            | App_fault _ -> false)
          else go (budget - 1)
    in
    go 64
  end

let unrecovered_faults t =
  Array.to_list t.apps
  |> List.filter_map (fun a ->
         if (not a.enabled) && a.fault_count > 0 then
           Some (a.build.Aft.ab_name, Option.value ~default:"" a.last_fault)
         else None)
