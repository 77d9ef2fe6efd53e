(* OS/kernel integration tests: full firmware builds dispatched by the
   kernel model, including cross-app isolation attacks. *)

module Aft = Amulet_aft.Aft
module Layout = Amulet_aft.Layout
module Os = Amulet_os
module Obs = Amulet_obs
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module W = Amulet_mcu.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter_app =
  "int count = 0;\n\
   int samples = 0;\n\
   void handle_init(int arg) { api_subscribe(0, 10); api_set_timer(500); }\n\
   void handle_accel(int arg) {\n\
  \  int buf[4];\n\
  \  int n = api_read_accel(buf, 4);\n\
  \  samples += n;\n\
  \  count += 1;\n\
   }\n\
   void handle_timer(int arg) { api_display_write(\"tick\", 0); }\n"

let read_global k app_name sym =
  let t = k in
  let addr =
    Amulet_link.Image.symbol t.Os.Kernel.fw.Aft.fw_image (app_name ^ "$" ^ sym)
  in
  M.mem_checked_read t.Os.Kernel.machine W.W16 addr

let build_one ?(mode = Iso.Mpu_assisted) source name =
  Aft.build ~mode [ { Aft.name; source } ]

let test_boot_and_init () =
  let fw = build_one counter_app "counter" in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let records = Os.Kernel.run_for_ms k 10 in
  (* init must have run cleanly *)
  check_bool "has init dispatch" true
    (List.exists (fun r -> r.Os.Kernel.dr_kind = Os.Event.Init) records);
  List.iter
    (fun r ->
      match r.Os.Kernel.dr_outcome with
      | Os.Kernel.Ok -> ()
      | Os.Kernel.No_handler -> ()
      | Os.Kernel.App_fault m -> Alcotest.failf "fault: %s" m)
    records

let test_subscription_rate () =
  let fw = build_one counter_app "counter" in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let _ = Os.Kernel.run_for_ms k 2_000 in
  let count = read_global k "counter" "count" in
  (* 10 Hz for 2 s: ~20 accel events (init at t=0, first sample 100ms) *)
  check_bool "accel events delivered" true (count >= 15 && count <= 21);
  let samples = read_global k "counter" "samples" in
  check_int "4 samples per event" (count * 4) samples

let test_timer_and_display () =
  let fw = build_one counter_app "counter" in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 1_200 in
  Alcotest.(check string) "display written" "tick" (Os.Kernel.display_line k 0)

let test_all_modes_dispatch () =
  List.iter
    (fun mode ->
      let fw = build_one ~mode counter_app "counter" in
      let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
      let _ = Os.Kernel.run_for_ms k 1_000 in
      let app = Os.Kernel.app_by_name k "counter" in
      check_bool
        (Iso.name mode ^ ": app still enabled")
        true app.Os.Kernel.enabled;
      let count = read_global k "counter" "count" in
      check_bool (Iso.name mode ^ ": events flowed") true (count >= 5))
    Iso.all

(* Two apps; the "evil" one tries to write into its neighbour's data. *)
let victim_app =
  "int secret = 12345;\n\
   int beats = 0;\n\
   void handle_init(int arg) { api_subscribe(1, 5); }\n\
   void handle_ppg(int arg) { beats += 1; }\n"

let evil_src ~target_addr =
  Printf.sprintf
    "int probes = 0;\n\
     void handle_init(int arg) { api_set_timer(100); }\n\
     void handle_timer(int arg) {\n\
    \  int *p = (int*)0x%04X;\n\
    \  *p = 666;\n\
    \  probes += 1;\n\
     }\n"
    target_addr

let build_pair ~mode ~evil_first =
  (* two-phase: placeholder build to learn the victim's secret address,
     then the real build with the attack aimed at it *)
  let probe =
    let specs =
      if evil_first then
        [ { Aft.name = "evil"; source = evil_src ~target_addr:0xBEEE };
          { Aft.name = "victim"; source = victim_app } ]
      else
        [ { Aft.name = "victim"; source = victim_app };
          { Aft.name = "evil"; source = evil_src ~target_addr:0xBEEE } ]
    in
    Aft.build ~mode specs
  in
  let secret_addr =
    Amulet_link.Image.symbol probe.Aft.fw_image "victim$secret"
  in
  let specs =
    if evil_first then
      [ { Aft.name = "evil"; source = evil_src ~target_addr:secret_addr };
        { Aft.name = "victim"; source = victim_app } ]
    else
      [ { Aft.name = "victim"; source = victim_app };
        { Aft.name = "evil"; source = evil_src ~target_addr:secret_addr } ]
  in
  let fw = Aft.build ~mode specs in
  (* the attack address must be identical in both builds *)
  let addr2 = Amulet_link.Image.symbol fw.Aft.fw_image "victim$secret" in
  assert (addr2 = secret_addr);
  (fw, secret_addr)

let run_attack ~mode ~evil_first =
  let fw, secret_addr = build_pair ~mode ~evil_first in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 500 in
  let evil = Os.Kernel.app_by_name k "evil" in
  let victim = Os.Kernel.app_by_name k "victim" in
  let secret = M.mem_checked_read k.Os.Kernel.machine W.W16 secret_addr in
  (evil, victim, secret)

let test_attack_blocked_mpu_above () =
  (* evil below victim: victim's region is above evil -> MPU seg3 *)
  let evil, victim, secret =
    run_attack ~mode:Iso.Mpu_assisted ~evil_first:true
  in
  check_int "secret intact" 12345 secret;
  check_bool "evil disabled" false evil.Os.Kernel.enabled;
  check_bool "victim alive" true victim.Os.Kernel.enabled;
  check_bool "fault recorded" true (evil.Os.Kernel.fault_count > 0)

let test_attack_blocked_mpu_below () =
  (* evil above victim: lower-bound compiler check must catch it *)
  let evil, _, secret =
    run_attack ~mode:Iso.Mpu_assisted ~evil_first:false
  in
  check_int "secret intact" 12345 secret;
  check_bool "evil disabled" false evil.Os.Kernel.enabled

let test_attack_blocked_sw () =
  let evil, _, secret =
    run_attack ~mode:Iso.Software_only ~evil_first:true
  in
  check_int "secret intact" 12345 secret;
  check_bool "evil disabled" false evil.Os.Kernel.enabled

let test_attack_succeeds_noiso () =
  (* the baseline has no protection: corruption must actually land *)
  let evil, _, secret = run_attack ~mode:Iso.No_isolation ~evil_first:true in
  check_int "secret corrupted" 666 secret;
  check_bool "evil still enabled" true evil.Os.Kernel.enabled

let test_victim_unaffected_after_attack () =
  let fw, _ = build_pair ~mode:Iso.Mpu_assisted ~evil_first:true in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 2_000 in
  let victim = Os.Kernel.app_by_name k "victim" in
  check_bool "victim kept running" true victim.Os.Kernel.enabled;
  let beats = read_global k "victim" "beats" in
  check_bool "victim still receiving events" true (beats >= 5)

let test_restart_policy () =
  let fw, _ = build_pair ~mode:Iso.Mpu_assisted ~evil_first:true in
  let k =
    Os.Kernel.create ~policy:(Os.Kernel.Restart 3) ~scenario:Os.Sensors.Resting
      fw
  in
  let _ = Os.Kernel.run_for_ms k 3_000 in
  let evil = Os.Kernel.app_by_name k "evil" in
  check_int "three restarts consumed" 3 evil.Os.Kernel.restarts;
  check_bool "finally disabled" false evil.Os.Kernel.enabled

(* An app passing an out-of-range pointer to the OS must be rejected
   ("carefully handle application-provided pointers"). *)
let test_api_pointer_validation () =
  let bad_app =
    "void handle_init(int arg) {\n\
    \  int *p = (int*)0x4400;\n\
    \  api_read_accel(p - 0, 4);\n\
     }\n"
  in
  (* no-isolation mode: the compiler inserts no checks, so the pointer
     reaches the OS, which must still reject it *)
  let fw = build_one ~mode:Iso.No_isolation bad_app "bad" in
  let k = Os.Kernel.create fw in
  let _ = Os.Kernel.run_for_ms k 10 in
  let os_code =
    M.mem_checked_read k.Os.Kernel.machine W.W16 0x4400
  in
  check_bool "OS code not clobbered by service" true (os_code <> 0);
  let app = Os.Kernel.app_by_name k "bad" in
  check_bool "pointer fault logged" true
    (app.Os.Kernel.last_fault <> None)

let test_handler_stats () =
  let fw = build_one counter_app "counter" in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let records = Os.Kernel.run_for_ms k 1_000 in
  let app = Os.Kernel.app_by_name k "counter" in
  match
    List.assoc_opt "handle_accel" (Os.Kernel.handler_stats app records)
  with
  | None -> Alcotest.fail "no stats for handle_accel"
  | Some s ->
    check_bool "counted" true (s.Os.Kernel.hs_count >= 5);
    check_bool "cycles recorded" true (s.Os.Kernel.hs_cycles > 0);
    check_bool "api calls recorded" true
      (s.Os.Kernel.hs_api_calls >= s.Os.Kernel.hs_count)

(* ARP-view per-state accounting: a two-state app whose timer handler
   does markedly different work per state. *)
let test_state_profile () =
  let src =
    "int state = 0;\n\
     int sink[16];\n\
     void handle_init(int arg) { api_set_timer(100); }\n\
     void handle_timer(int arg) {\n\
    \  if (state == 0) { state = 1; }\n\
    \  else {\n\
    \    int i; for (i = 0; i < 16; i++) sink[i] = i;\n\
    \    state = 0;\n\
    \  }\n\
     }\n"
  in
  let fw = build_one src "twostate" in
  let obs = Obs.Obs.create () in
  let buf = Buffer.create 4096 in
  Obs.Obs.add_sink obs (Obs.Obs.jsonl_buffer_sink buf);
  let k = Os.Kernel.create ~obs fw in
  let _ = Os.Kernel.run_for_ms k 2_000 in
  Obs.Obs.close obs;
  let profile =
    Obs.Summary.per_state_accounting
      (Obs.Summary.of_string (Buffer.contents buf))
  in
  let stats_of st =
    match List.assoc_opt (st, "handle_timer") profile with
    | Some s -> s
    | None -> Alcotest.failf "no stats for state %d" st
  in
  let (count0, cycles0, _), (count1, cycles1, _) = (stats_of 0, stats_of 1) in
  check_bool "both states dispatched" true (count0 >= 5 && count1 >= 5);
  check_bool "state-1 handler does more work" true
    (cycles1 / count1 > (cycles0 / count0) + 50)

let test_event_queue_order () =
  let q = Os.Event_queue.create () in
  Os.Event_queue.push q ~at:300 ~app:0 Os.Event.Tick ~arg:0;
  Os.Event_queue.push q ~at:100 ~app:1 Os.Event.Tick ~arg:1;
  Os.Event_queue.push q ~at:200 ~app:2 Os.Event.Tick ~arg:2;
  Os.Event_queue.push q ~at:100 ~app:3 Os.Event.Tick ~arg:3;
  let order =
    List.init 4 (fun _ ->
        match Os.Event_queue.pop q with
        | Some e -> e.Os.Event.app
        | None -> -1)
  in
  Alcotest.(check (list int)) "time order, FIFO ties" [ 1; 3; 2; 0 ] order

(* The array heap against the leftist heap it replaced
   (test/support/ref_queue.ml): random pushes (times from a small range,
   so ties are common), pops, peeks and clear_apps on both; every pop
   and peek must return the same event and the sizes must agree. *)
module Ref_queue = Test_support.Ref_queue

type queue_op = Push of int * int | Pop | Peek | Clear of int

let show_queue_op = function
  | Push (at, app) -> Printf.sprintf "push at=%d app=%d" at app
  | Pop -> "pop"
  | Peek -> "peek"
  | Clear app -> Printf.sprintf "clear_app %d" app

let queue_property =
  let open QCheck2.Gen in
  let app = int_range 0 3 in
  let op =
    frequency
      [
        (6, map2 (fun at app -> Push (at, app)) (int_range 0 12) app);
        (3, return Pop);
        (1, return Peek);
        (1, map (fun app -> Clear app) app);
      ]
  in
  QCheck2.Test.make ~count:500 ~name:"event queue = leftist heap"
    ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
    (list_size (int_range 0 200) op)
    (fun ops ->
      let q = Os.Event_queue.create () and r = Ref_queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Push (at, app) ->
            Os.Event_queue.push q ~at ~app Os.Event.Tick ~arg:at;
            Ref_queue.push r ~at ~app Os.Event.Tick ~arg:at;
            true
          | Pop -> Os.Event_queue.pop q = Ref_queue.pop r
          | Peek -> Os.Event_queue.peek q = Ref_queue.peek r
          | Clear app ->
            Os.Event_queue.clear_app q app;
            Ref_queue.clear_app r app;
            true)
          && Os.Event_queue.size q = Ref_queue.size r
          && Os.Event_queue.is_empty q = (Ref_queue.size r = 0))
        ops
      && List.init (Ref_queue.size r) (fun _ -> Ref_queue.pop r)
         = List.init (Os.Event_queue.size q) (fun _ -> Os.Event_queue.pop q))

let test_sensors_deterministic () =
  let s1 = Os.Sensors.create ~seed:7 Os.Sensors.Walking in
  let s2 = Os.Sensors.create ~seed:7 Os.Sensors.Walking in
  for t = 0 to 50 do
    let a1 = Os.Sensors.accel_sample s1 ~time_ms:(t * 20) in
    let a2 = Os.Sensors.accel_sample s2 ~time_ms:(t * 20) in
    if a1 <> a2 then Alcotest.fail "sensors not deterministic"
  done

let test_fall_scenario_spike () =
  let s = Os.Sensors.create (Os.Sensors.Fall_at 5_000) in
  let before = Os.Sensors.accel_magnitude s ~time_ms:4_000 in
  let impact = Os.Sensors.accel_magnitude s ~time_ms:5_300 in
  check_bool "calm before" true (before < 1500);
  check_bool "impact spike" true (impact > 2500)

(* The accelerometer magnitude and PPG series are memoised by time in
   their [Sensors.t].  One [t] answers a run of times twice over, so
   the second pass hits; times [k * 4096] apart share their low bits,
   so they collide in any direct-mapped table of up to 4096 slots.
   Every answer must equal a fresh [t]'s synthesis. *)
let sensors_memo_property =
  let open QCheck2.Gen in
  let scenario =
    oneof
      [
        oneofl Os.Sensors.[ Resting; Walking; Running; Daily_mix ];
        map (fun ms -> Os.Sensors.Fall_at ms) (int_range 0 2_000);
      ]
  in
  let time =
    frequency
      [
        (2, int_range 0 2_000);
        (2, map2 (fun b k -> b + (k * 4096)) (int_range 0 63) (int_range 0 99));
        (1, int_range 0 86_400_000);
      ]
  in
  QCheck2.Test.make ~count:300 ~name:"memoised samples = fresh synthesis"
    ~print:(fun (seed, _, times) ->
      Printf.sprintf "seed %d, times [%s]" seed
        (String.concat "; " (List.map string_of_int times)))
    (triple int scenario (list_size (int_range 1 40) time))
    (fun (seed, scenario, times) ->
      let s = Os.Sensors.create ~seed scenario in
      let fresh () = Os.Sensors.create ~seed scenario in
      List.for_all
        (fun time_ms ->
          Os.Sensors.accel_magnitude s ~time_ms
          = Os.Sensors.accel_magnitude (fresh ()) ~time_ms
          && Os.Sensors.ppg_sample s ~time_ms
             = Os.Sensors.ppg_sample (fresh ()) ~time_ms)
        (times @ times))

let () =
  Alcotest.run "os"
    [
      ( "kernel",
        [
          Alcotest.test_case "boot+init" `Quick test_boot_and_init;
          Alcotest.test_case "subscription rate" `Quick test_subscription_rate;
          Alcotest.test_case "timer+display" `Quick test_timer_and_display;
          Alcotest.test_case "all modes dispatch" `Quick test_all_modes_dispatch;
          Alcotest.test_case "handler stats" `Quick test_handler_stats;
          Alcotest.test_case "per-state profile (ARP-view)" `Quick
            test_state_profile;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "MPU blocks attack above" `Quick
            test_attack_blocked_mpu_above;
          Alcotest.test_case "MPU+check blocks attack below" `Quick
            test_attack_blocked_mpu_below;
          Alcotest.test_case "SW blocks attack" `Quick test_attack_blocked_sw;
          Alcotest.test_case "NoIso attack lands" `Quick
            test_attack_succeeds_noiso;
          Alcotest.test_case "victim survives" `Quick
            test_victim_unaffected_after_attack;
          Alcotest.test_case "restart policy" `Quick test_restart_policy;
          Alcotest.test_case "API pointer validation" `Quick
            test_api_pointer_validation;
        ] );
      ( "infra",
        [
          Alcotest.test_case "event queue order" `Quick test_event_queue_order;
          Test_support.Seed.to_alcotest queue_property;
          Alcotest.test_case "sensors deterministic" `Quick
            test_sensors_deterministic;
          Alcotest.test_case "fall spike" `Quick test_fall_scenario_spike;
          Test_support.Seed.to_alcotest sensors_memo_property;
        ] );
    ]
