module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Arp = Amulet_arp.Arp
module Energy = Amulet_arp.Energy

(* ------------------------------------------------------------------ *)
(* Measurement helper *)

let measure_in_kernel k ~app_index ~arg ~runs =
  let total = ref 0 and count = ref 0 in
  for _ = 1 to runs do
    Os.Kernel.post k ~delay_ms:0 ~app:app_index (Os.Event.Button arg) ~arg;
    match Os.Kernel.dispatch_next k with
    | Some r -> (
      match r.Os.Kernel.dr_outcome with
      | Os.Kernel.Ok ->
        total := !total + r.Os.Kernel.dr_cycles;
        incr count
      | Os.Kernel.No_handler -> failwith "benchmark app has no handle_button"
      | Os.Kernel.App_fault m -> failwith ("benchmark faulted: " ^ m))
    | None -> failwith "no event to dispatch"
  done;
  float_of_int !total /. float_of_int (max 1 !count)

let measure_handler ?(shadow = false) ?(elide = true) ?(certify = true) ~mode
    ~app ~arg ~runs () =
  let fw = Aft.build ~mode ~shadow ~elide ~certify [ Apps.spec_for mode app ] in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let _ = Os.Kernel.run_for_ms k 5 in
  measure_in_kernel k ~app_index:0 ~arg ~runs

(* ------------------------------------------------------------------ *)
(* Table 1 *)

type table1_row = {
  t1_mode : Iso.mode;
  t1_mem_access : float;
  t1_ctx_switch : float;
}

(* The paper's compiler has no check elision, and the synthetic
   benchmark's mask-indexed accesses are exactly the kind the range
   analysis proves safe — so Table 1 measures with elision off to
   reproduce the paper's per-guard cost.  [ablation_elision] below
   shows what the analysis recovers. *)
let table1 ?(runs = 200) ?(elide = false) () =
  List.map
    (fun mode ->
      let app = Apps.synthetic in
      let fw = Aft.build ~mode ~elide [ Apps.spec_for mode app ] in
      let k = Os.Kernel.create fw in
      let _ = Os.Kernel.run_for_ms k 5 in
      let c0 = measure_in_kernel k ~app_index:0 ~arg:0 ~runs in
      let c1 = measure_in_kernel k ~app_index:0 ~arg:1 ~runs in
      let c2 = measure_in_kernel k ~app_index:0 ~arg:2 ~runs in
      let accesses = float_of_int Amulet_apps.Bench_sources.synthetic_mem_accesses in
      let calls = float_of_int Amulet_apps.Bench_sources.synthetic_api_calls in
      {
        t1_mode = mode;
        t1_mem_access = (c1 -. c0) /. accesses;
        (* one API call = two context switches (app->OS and back) *)
        t1_ctx_switch = (c2 -. c0) /. calls /. 2.0;
      })
    Iso.all

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

type figure2_row = {
  f2_app : string;
  f2_mode : Iso.mode;
  f2_overhead_cycles : float;
  f2_battery_percent : float;
}

let figure2 ?(scenario = Os.Sensors.Walking) ?(warmup_ms = 90_000) () =
  List.concat_map
    (fun (app : Apps.app) ->
      let baseline =
        Arp.profile_app ~scenario ~warmup_ms ~mode:Iso.No_isolation app
      in
      List.map
        (fun mode ->
          let p = Arp.profile_app ~scenario ~warmup_ms ~mode app in
          let overhead = Arp.overhead_cycles_per_week ~baseline p in
          {
            f2_app = app.Apps.display_name;
            f2_mode = mode;
            f2_overhead_cycles = overhead;
            f2_battery_percent =
              Energy.battery_impact_percent ~overhead_cycles_per_week:overhead;
          })
        [ Iso.Feature_limited; Iso.Mpu_assisted; Iso.Software_only ])
    Apps.platform_apps

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

type figure3_row = {
  f3_case : string;
  f3_mode : Iso.mode;
  f3_cycles : float;
  f3_slowdown_percent : float;
}

let figure3_specs =
  [
    ("Activity Case 1", Apps.activity, 1);
    ("Activity Case 2", Apps.activity, 2);
    ("Quicksort", Apps.quicksort, 1);
  ]

let figure3 ?(runs = 200) () =
  List.concat_map
    (fun (case, app, arg) ->
      let baseline =
        measure_handler ~mode:Iso.No_isolation ~app ~arg ~runs ()
      in
      List.map
        (fun mode ->
          let cycles = measure_handler ~mode ~app ~arg ~runs () in
          {
            f3_case = case;
            f3_mode = mode;
            f3_cycles = cycles;
            f3_slowdown_percent = (cycles /. baseline -. 1.0) *. 100.0;
          })
        [ Iso.Feature_limited; Iso.Mpu_assisted; Iso.Software_only ])
    figure3_specs


(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's evaluation *)

(* Shadow return-address stack (paper section 5, "a shadow
   return-address stack to prevent applications from jumping outside
   their code bounds"): fixed per-call cost, measured with a
   call-dense handler. *)

type shadow_row = {
  sh_mode : Iso.mode;
  sh_plain : float;  (* cycles per run, shadow off *)
  sh_hardened : float;  (* cycles per run, shadow on *)
  sh_per_call : float;  (* marginal cycles per function call *)
}

let ablation_shadow ?(runs = 100) () =
  let app = Apps.callheavy in
  (* leaf calls plus the handler's own activation *)
  let calls = float_of_int (Amulet_apps.Bench_sources.call_count + 1) in
  List.map
    (fun mode ->
      let plain = measure_handler ~mode ~app ~arg:1 ~runs () in
      let hardened = measure_handler ~shadow:true ~mode ~app ~arg:1 ~runs () in
      {
        sh_mode = mode;
        sh_plain = plain;
        sh_hardened = hardened;
        sh_per_call = (hardened -. plain) /. calls;
      })
    Iso.all

(* The paper's closing projection: an MPU that could protect all of
   memory with four or more regions "would negate the need for our
   compiler-inserted bounds checks".  On such a part, per-access cost
   falls to the no-isolation figure while the context switch keeps the
   MPU reconfiguration price.  Synthesized from the measured Table 1. *)

type advanced_mpu_row = {
  am_mem_access : float;
  am_ctx_switch : float;
  am_mem_saving_percent : float;  (* vs the real MPU method *)
}

let ablation_advanced_mpu ?(runs = 100) () =
  let rows = table1 ~runs () in
  let find mode = List.find (fun r -> r.t1_mode = mode) rows in
  let mpu = find Iso.Mpu_assisted and none = find Iso.No_isolation in
  {
    am_mem_access = none.t1_mem_access;
    am_ctx_switch = mpu.t1_ctx_switch;
    am_mem_saving_percent =
      (mpu.t1_mem_access -. none.t1_mem_access) /. mpu.t1_mem_access *. 100.0;
  }

(* Bounds-check elision: the range analysis proves the synthetic
   benchmark's masked accesses in bounds, so its guards disappear in
   the modes that insert them (Software-Only and MPU). *)

type elision_row = {
  el_mode : Iso.mode;
  el_full : float;  (* cycles per run, every guard emitted *)
  el_elided : float;  (* cycles per run, proven guards dropped *)
  el_sites : int;  (* dereference sites whose guard was elided *)
  el_saving_percent : float;
}

let ablation_elision ?(runs = 100) () =
  let app = Apps.synthetic in
  List.map
    (fun mode ->
      let full = measure_handler ~mode ~app ~elide:false ~arg:1 ~runs () in
      let elided = measure_handler ~mode ~app ~elide:true ~arg:1 ~runs () in
      let fw = Aft.build ~mode [ Apps.spec_for mode app ] in
      let sites =
        List.fold_left
          (fun acc ab ->
            List.fold_left
              (fun acc fi ->
                acc + fi.Amulet_cc.Codegen.fi_sites.Amulet_cc.Codegen.elided)
              acc ab.Aft.ab_compiled.Amulet_cc.Driver.infos)
          0 fw.Aft.fw_apps
      in
      {
        el_mode = mode;
        el_full = full;
        el_elided = elided;
        el_sites = sites;
        el_saving_percent = (full -. elided) /. full *. 100.0;
      })
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* Gate-pointer certification: the static certifier proves every
   pointer the gate-dense benchmark hands the OS in-region, so the
   kernel's dynamic range validation disappears for its services. *)

type gate_cert_row = {
  gc_mode : Iso.mode;
  gc_dynamic : float;  (* cycles per run, every gate pointer validated *)
  gc_certified : float;  (* cycles per run, certified services elided *)
  gc_per_gate : float;  (* marginal cycles per pointer-carrying call *)
  gc_services : string list;  (* services certified for the app *)
}

let ablation_gate_cert ?(runs = 100) () =
  let app = Apps.gateheavy in
  let gates = float_of_int Amulet_apps.Bench_sources.gate_ptr_calls in
  List.map
    (fun mode ->
      let dynamic = measure_handler ~mode ~app ~certify:false ~arg:1 ~runs () in
      let certified = measure_handler ~mode ~app ~certify:true ~arg:1 ~runs () in
      let fw = Aft.build ~mode [ Apps.spec_for mode app ] in
      let services =
        Amulet_cc.Apis.certified_services fw.Aft.fw_image ~app:app.Apps.name
      in
      {
        gc_mode = mode;
        gc_dynamic = dynamic;
        gc_certified = certified;
        gc_per_gate = (dynamic -. certified) /. gates;
        gc_services = services;
      })
    [ Iso.Software_only; Iso.Mpu_assisted ]
