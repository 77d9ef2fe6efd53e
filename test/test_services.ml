(* Coverage of every OS API service: each is invoked from WearC app
   code through its real gate, and its observable effect is checked.
   The service contract that gate-check elision and the WCET bound rest
   on is checked on the kernel's dispatcher directly.  Also exercises
   the disassembler over a whole firmware image. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apis = Amulet_cc.Apis
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module W = Amulet_mcu.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a one-shot app whose handle_button body is [body]; run it and
   return the kernel plus the value of its global "r". *)
let run_body ?(mode = Iso.Mpu_assisted) ?(scenario = Os.Sensors.Walking)
    ?(pre = "") body =
  let source =
    Printf.sprintf
      "int r = 0;\n%s\nvoid handle_init(int arg) { }\n\
       void handle_button(int arg) {\n%s\n}\n"
      pre body
  in
  let fw = Aft.build ~mode [ { Aft.name = "svc"; source } ] in
  let k = Os.Kernel.create ~scenario fw in
  let _ = Os.Kernel.run_for_ms k 2 in
  Os.Kernel.post k ~delay_ms:1 ~app:0 (Os.Event.Button 1) ~arg:1;
  let _ = Os.Kernel.run_for_ms k 50 in
  let st = Os.Kernel.app_by_name k "svc" in
  (match st.Os.Kernel.last_fault with
  | Some f -> Alcotest.failf "service app faulted: %s" f
  | None -> ());
  let r =
    W.to_signed W.W16
      (M.mem_checked_read k.Os.Kernel.machine W.W16
         (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "svc$r"))
  in
  (k, r)

let test_get_time () =
  (* at ~3ms of virtual time, seconds = 0 *)
  let _, r = run_body "r = api_get_time() + 1;" in
  check_int "time+1" 1 r

let test_get_battery () =
  let _, r = run_body "r = api_get_battery();" in
  check_int "fresh battery" 100 r

let test_read_temperature () =
  let _, r = run_body "r = api_read_temperature();" in
  check_bool "tenths of C plausible" true (r > 250 && r < 420)

let test_read_light () =
  let _, r = run_body "r = api_read_light();" in
  check_bool "non-negative" true (r >= 0)

let test_read_heart_rate () =
  let _, r = run_body ~scenario:Os.Sensors.Running "r = api_read_heart_rate();" in
  check_bool "elevated when running" true (r > 120 && r < 200)

let test_read_accel_buffer () =
  let _, r =
    run_body ~pre:"int buf[8];"
      "int n = api_read_accel(buf, 8);\n\
       int i; int nz = 0;\n\
       for (i = 0; i < 8; i++) if (buf[i] != 0) nz += 1;\n\
       r = n * 100 + nz;"
  in
  check_bool "8 samples, mostly nonzero" true (r / 100 = 8 && r mod 100 >= 6)

let test_read_accel_xyz () =
  let _, r =
    run_body ~pre:"int v[3];" ~scenario:Os.Sensors.Resting
      "api_read_accel_xyz(v);\nr = v[2];"
  in
  (* gravity on z while resting: ~1000 milli-g *)
  check_bool "gravity on z" true (r > 900 && r < 1100)

let test_read_ppg () =
  let _, r =
    run_body ~pre:"int buf[4];"
      "int n = api_read_ppg(buf, 4);\nr = n * 1000 + (buf[0] > 1000);"
  in
  check_int "4 samples around midscale" 4001 r

let test_display_write_and_clear () =
  let k, _ = run_body "api_display_write(\"abc\", 2); r = 1;" in
  Alcotest.(check string) "line 2" "abc" (Os.Kernel.display_line k 2);
  let k2, _ = run_body "api_display_write(\"x\", 0); api_display_clear(); r = 1;" in
  Alcotest.(check string) "cleared" "" (Os.Kernel.display_line k2 0)

let test_log_append () =
  let k, r =
    run_body ~pre:"char rec[4];"
      "rec[0] = 'l'; rec[1] = 'o'; rec[2] = 'g'; rec[3] = '!';\n\
       r = api_log_append(rec, 4);"
  in
  check_int "bytes accepted" 4 r;
  Alcotest.(check string) "stored" "log!" (Os.Kernel.log_contents k)

let test_send_ble () =
  let k, r =
    run_body ~pre:"char pkt[3];"
      "pkt[0] = 'b'; pkt[1] = 'l'; pkt[2] = 'e';\nr = api_send_ble(pkt, 3);"
  in
  check_int "bytes sent" 3 r;
  Alcotest.(check string)
    "radio buffer" "ble"
    (Buffer.contents k.Os.Kernel.api.Os.Api.ble)

let test_rand_changes () =
  let _, r = run_body "int a = api_rand(); int b = api_rand(); r = (a != b);" in
  check_int "two draws differ" 1 r

let test_led_buzz_button () =
  let _, r =
    run_body "api_led(1); api_buzz(100); r = api_button_state() + 10;"
  in
  check_bool "button state is 0/1" true (r = 10 || r = 11)

let test_cancel_timer () =
  let source =
    "int fired = 0;\nint id = 0;\n\
     void handle_init(int arg) { id = api_set_timer(50); }\n\
     void handle_timer(int arg) { fired += 1; api_cancel_timer(id); }\n"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "tmr"; source } ] in
  let k = Os.Kernel.create fw in
  let _ = Os.Kernel.run_for_ms k 500 in
  let fired =
    M.mem_checked_read k.Os.Kernel.machine W.W16
      (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "tmr$fired")
  in
  check_int "fired exactly once" 1 fired

let test_unsubscribe () =
  let source =
    "int events = 0;\n\
     void handle_init(int arg) { api_subscribe(0, 20); }\n\
     void handle_accel(int arg) {\n\
    \  events += 1;\n\
    \  if (events >= 3) api_unsubscribe(0);\n\
     }\n"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "sub"; source } ] in
  let k = Os.Kernel.create fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let events =
    M.mem_checked_read k.Os.Kernel.machine W.W16
      (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "sub$events")
  in
  check_int "stopped after three" 3 events

let test_null_service () =
  let _, r = run_body "api_null(); r = 7;" in
  check_int "null is a no-op" 7 r

(* ------------------------------------------------------------------ *)
(* The service contract, on the real dispatcher *)

(* The table's one pointer argument is R12 — what the kernel validates
   and the certifier proves — so it must be the C signature's first
   parameter and its only pointer. *)
let test_pointer_shapes () =
  Array.iter
    (fun (s : Apis.service) ->
      let args =
        match s.Apis.signature with Amulet_cc.Ctype.Func (_, a) -> a | _ -> []
      in
      let pointer_params =
        List.concat
          (List.mapi
             (fun i a -> match a with Amulet_cc.Ctype.Ptr _ -> [ i ] | _ -> [])
             args)
      in
      Alcotest.(check (list int))
        (s.Apis.name ^ " pointer is R12")
        (if s.Apis.pointer = Apis.No_pointer then [] else [ 0 ])
        pointer_params;
      match s.Apis.pointer with
      | Apis.Counted { lo; hi; _ } ->
        check_bool (s.Apis.name ^ " clamp range") true (0 <= lo && lo <= hi)
      | _ -> ())
    Apis.services

type case = {
  svc : int;  (** [Array.length Apis.services] is out of range *)
  r12 : int;
  r13 : int;
  r14 : int;
  lo : int;
  hi : int;
  certified : bool;
  now_ms : int;
  fill : int;  (** seed of the memory contents *)
}

let gen_case =
  let open QCheck2.Gen in
  let word = int_range 0 0xFFFF in
  let pointer_services =
    List.filter
      (fun i -> Apis.services.(i).Apis.pointer <> Apis.No_pointer)
      (List.init (Array.length Apis.services) Fun.id)
  in
  let* svc =
    oneof [ int_range 0 (Array.length Apis.services); oneofl pointer_services ]
  in
  let* lo = map (fun w -> 2 * w) (int_range 0x100 0x7700) in
  let* hi = map (fun w -> lo + (2 * w)) (int_range 0 160) in
  let* r13 = oneof [ map (fun n -> n land 0xFFFF) (int_range (-4) 140); word ] in
  (* pointers at either end of the region, where an extent that is off
     by one element shows *)
  let ext =
    if svc < Array.length Apis.services then
      Apis.extent Apis.services.(svc).Apis.pointer
        (if r13 <= 0x7FFF then Some r13 else None)
    else 0
  in
  let near a = map (fun d -> (a + d) land 0xFFFF) (int_range (-2) 2) in
  let* r12 =
    frequency
      [ (1, near lo); (2, near (hi - ext)); (1, int_range lo hi); (1, word) ]
  in
  let* r14 = word in
  let* certified = bool in
  let* now_ms = int_range 0 100_000 in
  let* fill = int in
  return { svc; r12; r13; r14; lo; hi; certified; now_ms; fill }

let print_case c =
  Printf.sprintf
    "svc %d R12=%04X R13=%04X R14=%04X region [%04X,%04X) certified=%b      now=%d fill=%d"
    c.svc c.r12 c.r13 c.r14 c.lo c.hi c.certified c.now_ms c.fill

(* (a) the charge stays within [worst_case_charge]; (b) uncertified, no
   byte outside the valid region changes; (c) certified, neither does
   any when the pointer meets the certifier's own condition. *)
let prop_service_contract =
  QCheck2.Test.make ~count:1000 ~name:"dispatch honours the service table"
    ~print:print_case gen_case (fun c ->
      let m = M.create () in
      let rng = Random.State.make [| c.fill |] in
      (* bytes around the region, a few of them NULs *)
      for a = c.lo - 300 to c.hi + 300 do
        let b = Random.State.int rng 256 in
        Amulet_mcu.Memory.write_byte m.M.mem a (if b < 32 then 0 else b)
      done;
      let before = Amulet_mcu.Memory.copy m.M.mem in
      let regs = M.regs m in
      List.iter2 (Amulet_mcu.Registers.set regs) [ 12; 13; 14 ]
        [ c.r12; c.r13; c.r14 ];
      let api = Os.Api.create (Os.Sensors.create Os.Sensors.Walking) in
      let cycles0 = M.cycles m in
      Os.Api.dispatch api m
        ~certified:(Array.make (Array.length Apis.services) c.certified)
        ~valid:[ (c.lo, c.hi) ] ~now_ms:c.now_ms ~svc:c.svc ~apply:ignore;
      let charged = M.cycles m - cycles0 in
      let outside_intact () =
        let ok = ref true in
        for a = 0 to 0xFFFF do
          if
            (a < c.lo || a >= c.hi)
            && Amulet_mcu.Memory.read_byte m.M.mem a
               <> Amulet_mcu.Memory.read_byte before a
          then ok := false
        done;
        !ok
      in
      api.Os.Api.calls = 1
      &&
      if c.svc = Array.length Apis.services then
        charged = Apis.unknown_charge
        && Amulet_mcu.Registers.get regs 12 = 0xFFFF
      else
        let s = Apis.services.(c.svc) in
        let extent =
          Apis.extent s.Apis.pointer
            (if c.r13 <= 0x7FFF then Some c.r13 else None)
        in
        charged <= Apis.worst_case_charge ~certified:c.certified s.Apis.name
        && ((c.certified && (c.r12 < c.lo || c.r12 + extent > c.hi))
           || outside_intact ()))

(* ------------------------------------------------------------------ *)
(* Disassembler over a real firmware image *)

let test_disasm_roundtrip () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [ { Aft.name = "svc";
          source = "int r; void handle_init(int a) { r = a + 1; }" } ]
  in
  let m = M.create () in
  Amulet_link.Image.load fw.Aft.fw_image m;
  let fetch a = M.mem_checked_read m W.W16 a in
  let lay = List.hd fw.Aft.fw_layout.Amulet_aft.Layout.apps in
  let lines =
    Amulet_mcu.Disasm.range
      ~symbols:fw.Aft.fw_image.Amulet_link.Image.symbols ~fetch
      ~lo:lay.Amulet_aft.Layout.code_base
      ~hi:(lay.Amulet_aft.Layout.code_base + lay.Amulet_aft.Layout.code_size)
      ()
  in
  check_bool "produced lines" true (List.length lines > 10);
  let text =
    String.concat "\n" (List.map (fun l -> l.Amulet_mcu.Disasm.text) lines)
  in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "has label" true (contains "handle_init");
  check_bool "has MOV" true (contains "MOV");
  check_bool "has RET (MOV @SP+, PC)" true (contains "@R1+, R0")

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "services"
    [
      ( "api",
        [
          quick "null" test_null_service;
          quick "get_time" test_get_time;
          quick "get_battery" test_get_battery;
          quick "read_temperature" test_read_temperature;
          quick "read_light" test_read_light;
          quick "read_heart_rate" test_read_heart_rate;
          quick "read_accel buffer" test_read_accel_buffer;
          quick "read_accel_xyz" test_read_accel_xyz;
          quick "read_ppg" test_read_ppg;
          quick "display write/clear" test_display_write_and_clear;
          quick "log_append" test_log_append;
          quick "send_ble" test_send_ble;
          quick "rand" test_rand_changes;
          quick "led/buzz/button" test_led_buzz_button;
          quick "cancel_timer" test_cancel_timer;
          quick "unsubscribe" test_unsubscribe;
        ] );
      ( "contract",
        [
          quick "pointer shapes" test_pointer_shapes;
          Test_support.Seed.to_alcotest prop_service_contract;
        ] );
      ("disasm", [ quick "firmware listing" test_disasm_roundtrip ]);
    ]
