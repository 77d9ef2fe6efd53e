module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module W = Amulet_mcu.Word
module Apis = Amulet_cc.Apis

type effect =
  | Set_timer of { id : int; period_ms : int }
  | Cancel_timer of int
  | Subscribe of { sensor : Event.sensor; rate_hz : int }
  | Unsubscribe of Event.sensor
  | Pointer_fault of { service : string; addr : int; len : int }

type t = {
  sensors : Sensors.t;
  display : string array;
  log : Buffer.t;
  ble : Buffer.t;
  mutable rand_state : int;
  mutable next_timer : int;
  mutable calls : int;
}

let create sensors =
  {
    sensors;
    display = Array.make 4 "";
    log = Buffer.create 256;
    ble = Buffer.create 256;
    rand_state = 0xACE1;
    next_timer = 1;
    calls = 0;
  }

let xorshift16 s =
  let s = s lxor (s lsl 7) land 0xFFFF in
  let s = s lxor (s lsr 9) in
  s lxor (s lsl 8) land 0xFFFF

(* One call as a service's behaviour sees it.  [n] is the element count
   the shared pointer step settled on; the pointer itself is R12. *)
type call = {
  api : t;
  machine : M.t;
  now_ms : int;
  n : int;
  mutable effects : effect list;
}

let arg c i = R.get (M.regs c.machine) (12 + i)
let set_result c v = R.set (M.regs c.machine) 12 (v land 0xFFFF)
let effect c e = c.effects <- e :: c.effects

let reading f c = set_result c (f c.api.sensors ~time_ms:c.now_ms)

(* [n] samples ending now, [period_ms] apart, as words at R12 *)
let write_samples ~period_ms f c =
  let buf = arg c 0 in
  for i = 0 to c.n - 1 do
    let tm = c.now_ms - ((c.n - 1 - i) * period_ms) in
    M.mem_checked_write c.machine W.W16 (buf + (2 * i))
      (f c.api.sensors ~time_ms:(Int.max 0 tm) land 0xFFFF)
  done;
  set_result c c.n

let read_bytes c =
  String.init c.n (fun i ->
      Char.chr (M.mem_checked_read c.machine W.W8 (arg c 0 + i)))

let with_sensor f c =
  match Event.sensor_of_int (arg c 0) with
  | Some sensor ->
    effect c (f c sensor);
    set_result c 0
  | None -> set_result c 0xFFFF

(* Each service's own behaviour, after the shared pointer step. *)
let behaviours =
  [
    ("api_null", fun c -> set_result c 0);
    ("api_get_time", fun c -> set_result c (c.now_ms / 1000));
    ("api_get_battery", reading Sensors.battery_percent);
    ("api_read_accel", write_samples ~period_ms:20 Sensors.accel_magnitude);
    ( "api_read_accel_xyz",
      fun c ->
        let x, y, z = Sensors.accel_sample c.api.sensors ~time_ms:c.now_ms in
        List.iteri
          (fun i v ->
            M.mem_checked_write c.machine W.W16 (arg c 0 + (2 * i))
              (v land 0xFFFF))
          [ x; y; z ];
        set_result c 3 );
    ("api_read_heart_rate", reading Sensors.heart_rate);
    ("api_read_ppg", write_samples ~period_ms:10 Sensors.ppg_sample);
    ("api_read_temperature", reading Sensors.temperature);
    ("api_read_light", reading Sensors.light);
    ( "api_display_write",
      fun c ->
        c.api.display.(arg c 1 land 3) <- read_bytes c;
        set_result c 0 );
    ( "api_display_clear",
      fun c ->
        Array.fill c.api.display 0 4 "";
        set_result c 0 );
    ("api_button_state", reading Sensors.button_state);
    ("api_led", fun c -> set_result c 0);
    ("api_buzz", fun c -> set_result c 0);
    ( "api_log_append",
      fun c ->
        Buffer.add_string c.api.log (read_bytes c);
        set_result c c.n );
    ( "api_send_ble",
      fun c ->
        Buffer.add_string c.api.ble (read_bytes c);
        set_result c c.n );
    ( "api_set_timer",
      fun c ->
        (* the period is an unsigned 16-bit millisecond count (1..65535) *)
        let id = c.api.next_timer in
        c.api.next_timer <- id + 1;
        effect c (Set_timer { id; period_ms = Int.max 1 (arg c 0) });
        set_result c id );
    ( "api_cancel_timer",
      fun c ->
        effect c (Cancel_timer (arg c 0));
        set_result c 0 );
    ( "api_subscribe",
      with_sensor (fun c sensor ->
          Subscribe
            {
              sensor;
              rate_hz = Int.max 1 (Int.min 100 (W.to_signed W.W16 (arg c 1)));
            })
    );
    ("api_unsubscribe", with_sensor (fun _ sensor -> Unsubscribe sensor));
    ( "api_rand",
      fun c ->
        c.api.rand_state <- xorshift16 c.api.rand_state;
        set_result c c.api.rand_state );
  ]

let handlers =
  Array.map
    (fun (s : Apis.service) ->
      match List.assoc_opt s.Apis.name behaviours with
      | Some f -> f
      | None -> invalid_arg ("Api: no behaviour for " ^ s.Apis.name))
    Apis.services

(* writable span ending at the first range boundary above addr *)
let span_above valid addr =
  List.fold_left
    (fun acc (lo, hi) -> if addr >= lo && addr < hi then hi - addr else acc)
    0 valid

let string_length machine addr limit =
  let rec go i =
    if i < limit && M.mem_checked_read machine W.W8 (addr + i) <> 0 then
      go (i + 1)
    else i
  in
  go 0

(* The step every pointer service shares: clamp the element count,
   validate the bytes at R12 against [valid] unless certified, charge.
   [Error (addr, len)] is a rejected range; [Ok n] the count served. *)
let pointer_step machine ~certified ~valid (p : Apis.pointer) =
  let regs = M.regs machine in
  let addr = R.get regs 12 in
  let n = Apis.count p (R.get regs 13) in
  let len = Apis.validated_bytes p n in
  if not certified then M.add_cycles machine Apis.validate_charge;
  let inside (lo, hi) = addr >= lo && addr + len <= hi in
  if certified || List.exists inside valid then begin
    let n =
      match p with
      | Apis.C_string _ ->
        string_length machine addr (Int.min n (span_above valid addr))
      | _ -> n
    in
    M.add_cycles machine (Apis.variable_charge p n);
    Ok n
  end
  else Error (addr, len)

let dispatch t machine ~certified ~valid ~now_ms ~svc =
  t.calls <- t.calls + 1;
  if svc < 0 || svc >= Array.length Apis.services then begin
    M.add_cycles machine Apis.unknown_charge;
    R.set (M.regs machine) 12 0xFFFF;
    []
  end
  else begin
    let s = Apis.services.(svc) in
    M.add_cycles machine s.Apis.base_charge;
    let step =
      match s.Apis.pointer with
      | Apis.No_pointer -> Ok 0
      | p -> pointer_step machine ~certified:certified.(svc) ~valid p
    in
    match step with
    | Ok n ->
      let c = { api = t; machine; now_ms; n; effects = [] } in
      handlers.(svc) c;
      List.rev c.effects
    | Error (addr, len) ->
      R.set (M.regs machine) 12 0xFFFF;
      [ Pointer_fault { service = s.Apis.name; addr; len } ]
  end
