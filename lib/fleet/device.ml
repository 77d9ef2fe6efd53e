module M = Amulet_mcu.Machine
module Iso = Amulet_cc.Isolation
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module Hist = Amulet_obs.Hist
module Rng = Scenario.Rng

type result = {
  r_index : int;
  r_mode : Iso.mode;
  r_dispatches : int;
  r_no_handler : int;
  r_faults : int;
  r_unrecovered : int;
  r_api_calls : int;
  r_cycles : int;
  r_dispatch : Hist.t;
  r_latency : Hist.t;
  r_os_intact : bool;
  r_alive : bool;
}

(* Post one traffic stream's arrivals for the whole run.  Inter-arrival
   gaps are uniform on [1, 2*mean] ms (mean = 1000/rate), drawn from a
   stream-private rng so adding a traffic line never perturbs the
   schedule of another. *)
let post_traffic k ~napps ~duration_ms ~dseed ti (tr : Scenario.traffic) =
  let rng = Rng.create (dseed lxor ((ti + 1) * 0x9E3779B9)) in
  let mean_ms = max 1 (int_of_float (1000.0 /. tr.Scenario.tr_rate)) in
  let rec go t =
    let t = t + 1 + Rng.draw rng (2 * mean_ms) in
    if t < duration_ms then begin
      for _ = 1 to tr.Scenario.tr_burst do
        let app = Rng.draw rng napps in
        let kind, arg =
          match tr.Scenario.tr_kind with
          | Scenario.Button -> (Event.Button 1, 1)
          | Scenario.Ble -> (Event.Button 2, Rng.draw rng 256)
          | Scenario.Tick -> (Event.Tick, 0)
        in
        Kernel.post k ~delay_ms:t ~app kind ~arg
      done;
      go t
    end
  in
  go 0

let run ~boot ~scenario ~seed ~index =
  let duration_ms = scenario.Scenario.sc_duration_ms in
  let dseed = Scenario.device_seed ~seed ~index in
  let k =
    Kernel.start ~policy:Kernel.Disable
      ~scenario:scenario.Scenario.sc_sensors ~seed:dseed boot
  in
  let napps = Array.length k.Kernel.apps in
  List.iteri
    (post_traffic k ~napps ~duration_ms ~dseed)
    scenario.Scenario.sc_traffic;
  (match scenario.Scenario.sc_churn_ms with
  | Some churn ->
    (* app churn: periodically re-deliver handle_init to every app *)
    let rec go t =
      if t < duration_ms then begin
        for a = 0 to napps - 1 do
          Kernel.post k ~delay_ms:t ~app:a Event.Init ~arg:0
        done;
        go (t + churn)
      end
    in
    go churn
  | None -> ());
  let records = Kernel.run_for_ms k duration_ms in
  let dispatch = Hist.create () and latency = Hist.create () in
  let dispatches = ref 0 and no_handler = ref 0 in
  let faults = ref 0 and api_calls = ref 0 in
  List.iter
    (fun (r : Kernel.dispatch_record) ->
      match r.Kernel.dr_outcome with
      | Kernel.No_handler -> incr no_handler
      | Kernel.Ok | Kernel.App_fault _ ->
        incr dispatches;
        Hist.record dispatch r.Kernel.dr_cycles;
        Hist.record latency r.Kernel.dr_latency;
        api_calls := !api_calls + r.Kernel.dr_api_calls;
        (match r.Kernel.dr_outcome with
        | Kernel.App_fault _ -> incr faults
        | Kernel.Ok | Kernel.No_handler -> ()))
    records;
  (* cycle total before the probes: the oracle's extra dispatches must
     not pollute the device's throughput/energy accounting *)
  let cycles = M.cycles k.Kernel.machine in
  let os_intact = Kernel.os_intact k in
  let alive = Kernel.liveness_probe k ~app:0 in
  {
    r_index = index;
    r_mode = k.Kernel.fw.Amulet_aft.Aft.fw_mode;
    r_dispatches = !dispatches;
    r_no_handler = !no_handler;
    r_faults = !faults;
    r_unrecovered = List.length (Kernel.unrecovered_faults k);
    r_api_calls = !api_calls;
    r_cycles = cycles;
    r_dispatch = dispatch;
    r_latency = latency;
    r_os_intact = os_intact;
    r_alive = alive;
  }

let violations r =
  let v = [] in
  let v =
    if r.r_alive then v
    else
      Printf.sprintf "device %d (%s): liveness probe failed" r.r_index
        (Iso.name r.r_mode)
      :: v
  in
  if r.r_os_intact then v
  else
    Printf.sprintf "device %d (%s): OS code changed" r.r_index
      (Iso.name r.r_mode)
    :: v
