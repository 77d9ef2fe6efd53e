(* Observer invariance: what the simulator computes does not depend on
   who watches it.

   Each app below runs under every isolation mode for one virtual
   second (walking sensors, a button press every 150 ms) with each
   observer setup: nothing attached, an [Obs] context with no sinks, a
   JSONL sink with the cycle profiler, an [Agg] sink with the profiler
   (which also publishes the per-class energy counters), an idle fault
   injector, a no-op watcher, and the block cache dropped every 100
   virtual ms.  All of them must produce the same cycles, dispatch
   records and console.  The two profiled runs must also agree on the
   profiler report byte for byte, the [Agg] energy counters must equal
   the profiler's class totals, and the idle injector must have seen
   every retired instruction. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module Sensors = Amulet_os.Sensors
module Suite = Amulet_apps.Suite
module M = Amulet_mcu.Machine
module Cpu = Amulet_mcu.Cpu
module Obs = Amulet_obs.Obs
module Agg = Amulet_obs.Agg
module Profile = Amulet_obs.Profile
module Inject = Amulet_sec.Inject

let apps = [ "pedometer"; "heart_rate"; "gateheavy"; "quicksort" ]

type outcome = {
  cycles : int;
  records : Kernel.dispatch_record list;
  console : string;
}

(* One second of [fw] in 100 ms slices, [between] called before each
   slice.  [obs] is attached before boot; [arm] sees the booted
   kernel. *)
let run ?obs ?(arm = ignore) ?(between = ignore) fw =
  let k = Kernel.create ~scenario:Sensors.Walking ?obs fw in
  arm k;
  for i = 0 to 5 do
    Kernel.post k ~delay_ms:(150 * i) ~app:0 (Event.Button 1) ~arg:1
  done;
  let records = ref [] in
  for _ = 1 to 10 do
    between k;
    records := List.rev_append (Kernel.run_for_ms k 100) !records
  done;
  let m = k.Kernel.machine in
  ( k,
    {
      cycles = M.cycles m;
      records = List.rev !records;
      console = M.console_contents m;
    } )

let profiled fw sink =
  let obs = Obs.create () in
  Obs.add_sink obs sink;
  Obs.enable_profile obs fw;
  obs

let profile obs = Option.get (Obs.profile obs)

let report obs (k : Kernel.t) =
  Format.asprintf "%a" Profile.pp_report
    (Profile.report (profile obs) ~machine:k.Kernel.machine)

let check_same what (bare : outcome) (o : outcome) =
  Alcotest.(check int) (what ^ ": cycles") bare.cycles o.cycles;
  if o.records <> bare.records then
    Alcotest.failf "%s: dispatch records diverged" what;
  Alcotest.(check string) (what ^ ": console") bare.console o.console

let observer_effect app mode () =
  let fw = Aft.build ~mode [ Suite.spec_for mode (Suite.find app) ] in
  let _, bare = run fw in
  Alcotest.(check bool) "a handler ran" true
    (List.exists (fun r -> r.Kernel.dr_outcome = Kernel.Ok) bare.records);
  check_same "obs, no sinks" bare (snd (run ~obs:(Obs.create ()) fw));
  let jsonl = profiled fw (Obs.jsonl_buffer_sink (Buffer.create 4096)) in
  let kj, traced = run ~obs:jsonl fw in
  check_same "jsonl + profiler" bare traced;
  let agg = Agg.create () in
  let aggregated = profiled fw (Agg.sink agg) in
  let ka, telemetry = run ~obs:aggregated fw in
  check_same "agg + profiler" bare telemetry;
  Alcotest.(check string)
    "profiler report independent of the sink" (report jsonl kj)
    (report aggregated ka);
  List.iter
    (fun (c, cycles) ->
      match Agg.counter agg (Profile.counter_name c) with
      | Some ctr ->
        Alcotest.(check int) (Profile.counter_name c) cycles ctr.Agg.c_last
      | None -> Alcotest.failf "no %s counter" (Profile.counter_name c))
    (Profile.totals (profile aggregated));
  let idle = ref None in
  let arm k =
    let m = k.Kernel.machine in
    let plan = Inject.plan ~seed:7 ~flips:0 ~window:(0, 1) Inject.Regs in
    idle := Some (m.M.cpu.Cpu.insns, Inject.arm plan m)
  in
  let ki, injected = run ~arm fw in
  check_same "idle injector" bare injected;
  let insns0, inj = Option.get !idle in
  Alcotest.(check int) "idle injector flips" 0 (Inject.flips_done inj);
  Alcotest.(check int) "idle injector saw every retired instruction"
    (ki.Kernel.machine.M.cpu.Cpu.insns - insns0)
    (Inject.steps inj);
  let watched k = M.add_watch k.Kernel.machine ignore in
  check_same "no-op watcher" bare (snd (run ~arm:watched fw));
  let drop k = M.drop_blocks k.Kernel.machine in
  check_same "cache dropped every 100 ms" bare (snd (run ~between:drop fw))

let () =
  Alcotest.run "observe"
    [
      ( "observer-effect",
        List.concat_map
          (fun app ->
            List.map
              (fun mode ->
                Alcotest.test_case
                  (Printf.sprintf "%s (%s)" app (Iso.name mode))
                  `Quick (observer_effect app mode))
              Iso.all)
          apps );
    ]
