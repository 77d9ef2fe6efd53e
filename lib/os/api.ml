module M = Amulet_mcu.Machine
module Cpu = Amulet_mcu.Cpu
module Memory = Amulet_mcu.Memory
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
    (* small: a fleet starts a kernel per device; they grow on use *)
    log = Buffer.create 16;
    ble = Buffer.create 16;
    rand_state = 0xACE1;
    next_timer = 1;
    calls = 0;
  }

let xorshift16 s =
  let s = s lxor (s lsl 7) land 0xFFFF in
  let s = s lxor (s lsr 9) in
  s lxor (s lsl 8) land 0xFFFF

(* Services read their arguments from R12-R14 and write the result to
   R12 straight in the register file, and read the app's bytes straight
   from memory: no call into another module per access. *)
let[@inline] arg m i = m.M.cpu.Cpu.regs.(12 + i)
let[@inline] set_result m v = m.M.cpu.Cpu.regs.(12) <- v land 0xFFFF
let[@inline] byte m a =
  Char.code (Bytes.unsafe_get m.M.mem.Memory.data (a land 0xFFFF))

(* A service's own behaviour, after the shared pointer step: [n] is the
   element count that step settled on (the pointer itself is R12), and
   [apply] applies the one effect the service may raise. *)
type behaviour =
  t -> M.t -> now_ms:int -> n:int -> apply:(effect -> unit) -> unit

let reading f : behaviour =
 fun t m ~now_ms ~n:_ ~apply:_ -> set_result m (f t.sensors ~time_ms:now_ms)

let answer v : behaviour = fun _ m ~now_ms:_ ~n:_ ~apply:_ -> set_result m v

(* [n] samples ending now, [period_ms] apart, as words at R12 *)
let write_samples ~period_ms f : behaviour =
 fun t m ~now_ms ~n ~apply:_ ->
  let buf = arg m 0 in
  for i = 0 to n - 1 do
    let tm = now_ms - ((n - 1 - i) * period_ms) in
    M.mem_checked_write m W.W16 (buf + (2 * i))
      (f t.sensors ~time_ms:(Int.max 0 tm) land 0xFFFF)
  done;
  set_result m n

(* [n] bytes at R12 onto [buf] *)
let append_bytes buf m n =
  let a = arg m 0 in
  for i = 0 to n - 1 do
    Buffer.add_char buf (Char.unsafe_chr (byte m (a + i)))
  done

let with_sensor f : behaviour =
 fun _ m ~now_ms:_ ~n:_ ~apply ->
  match Event.sensor_of_int (arg m 0) with
  | Some sensor ->
    apply (f m sensor);
    set_result m 0
  | None -> set_result m 0xFFFF

let behaviours : (string * behaviour) list =
  [
    ("api_null", answer 0);
    ( "api_get_time",
      fun _ m ~now_ms ~n:_ ~apply:_ -> set_result m (now_ms / 1000) );
    ("api_get_battery", reading Sensors.battery_percent);
    ("api_read_accel", write_samples ~period_ms:20 Sensors.accel_magnitude);
    ( "api_read_accel_xyz",
      fun t m ~now_ms ~n:_ ~apply:_ ->
        let x, y, z = Sensors.accel_sample t.sensors ~time_ms:now_ms in
        let buf = arg m 0 in
        M.mem_checked_write m W.W16 buf (x land 0xFFFF);
        M.mem_checked_write m W.W16 (buf + 2) (y land 0xFFFF);
        M.mem_checked_write m W.W16 (buf + 4) (z land 0xFFFF);
        set_result m 3 );
    ("api_read_heart_rate", reading Sensors.heart_rate);
    ("api_read_ppg", write_samples ~period_ms:10 Sensors.ppg_sample);
    ("api_read_temperature", reading Sensors.temperature);
    ("api_read_light", reading Sensors.light);
    ( "api_display_write",
      (* the one service that keeps the app's bytes: the line is state *)
      fun t m ~now_ms:_ ~n ~apply:_ ->
        let a = arg m 0 in
        t.display.(arg m 1 land 3) <-
          String.init n (fun i -> Char.unsafe_chr (byte m (a + i)));
        set_result m 0 );
    ( "api_display_clear",
      fun t m ~now_ms:_ ~n:_ ~apply:_ ->
        Array.fill t.display 0 4 "";
        set_result m 0 );
    ("api_button_state", reading Sensors.button_state);
    ("api_led", answer 0);
    ("api_buzz", answer 0);
    ( "api_log_append",
      fun t m ~now_ms:_ ~n ~apply:_ ->
        append_bytes t.log m n;
        set_result m n );
    ( "api_send_ble",
      fun t m ~now_ms:_ ~n ~apply:_ ->
        append_bytes t.ble m n;
        set_result m n );
    ( "api_set_timer",
      fun t m ~now_ms:_ ~n:_ ~apply ->
        (* the period is an unsigned 16-bit millisecond count (1..65535) *)
        let id = t.next_timer in
        t.next_timer <- id + 1;
        apply (Set_timer { id; period_ms = Int.max 1 (arg m 0) });
        set_result m id );
    ( "api_cancel_timer",
      fun _ m ~now_ms:_ ~n:_ ~apply ->
        apply (Cancel_timer (arg m 0));
        set_result m 0 );
    ( "api_subscribe",
      with_sensor (fun m sensor ->
          Subscribe
            {
              sensor;
              rate_hz = Int.max 1 (Int.min 100 (W.to_signed W.W16 (arg m 1)));
            }) );
    ("api_unsubscribe", with_sensor (fun _ sensor -> Unsubscribe sensor));
    ( "api_rand",
      fun t m ~now_ms:_ ~n:_ ~apply:_ ->
        t.rand_state <- xorshift16 t.rand_state;
        set_result m t.rand_state );
  ]

let handlers =
  Array.map
    (fun (s : Apis.service) ->
      match List.assoc_opt s.Apis.name behaviours with
      | Some f -> f
      | None -> invalid_arg ("Api: no behaviour for " ^ s.Apis.name))
    Apis.services

(* Does one of the ranges hold [addr, addr + len)? *)
let rec inside addr len = function
  | [] -> false
  | (lo, hi) :: tl -> (addr >= lo && addr + len <= hi) || inside addr len tl

(* writable span ending at the first range boundary above addr *)
let rec span_above addr span = function
  | [] -> span
  | (lo, hi) :: tl ->
    span_above addr (if addr >= lo && addr < hi then hi - addr else span) tl

let rec string_length m addr limit i =
  if i < limit && byte m (addr + i) <> 0 then string_length m addr limit (i + 1)
  else i

(* The step every pointer service shares: clamp the element count,
   validate the bytes at R12 against [valid] unless certified, charge.
   Returns the count served, or -1 for a rejected range, which charges
   no transfer, answers 0xFFFF and applies a [Pointer_fault]. *)
let pointer_step m ~certified ~valid ~apply (s : Apis.service) =
  let p = s.Apis.pointer in
  let addr = arg m 0 in
  let n = Apis.count p (arg m 1) in
  let len = Apis.validated_bytes p n in
  if not certified then M.add_cycles m Apis.validate_charge;
  if certified || inside addr len valid then begin
    let n =
      match p with
      | Apis.C_string _ ->
        string_length m addr (Int.min n (span_above addr 0 valid)) 0
      | _ -> n
    in
    M.add_cycles m (Apis.variable_charge p n);
    n
  end
  else begin
    set_result m 0xFFFF;
    apply (Pointer_fault { service = s.Apis.name; addr; len });
    -1
  end

let dispatch t m ~certified ~valid ~now_ms ~svc ~apply =
  t.calls <- t.calls + 1;
  if svc < 0 || svc >= Array.length Apis.services then begin
    M.add_cycles m Apis.unknown_charge;
    set_result m 0xFFFF
  end
  else begin
    let s = Apis.services.(svc) in
    M.add_cycles m s.Apis.base_charge;
    let n =
      match s.Apis.pointer with
      | Apis.No_pointer -> 0
      | _ -> pointer_step m ~certified:certified.(svc) ~valid ~apply s
    in
    if n >= 0 then handlers.(svc) t m ~now_ms ~n ~apply
  end
