type sensor = Accel | Ppg | Temperature | Light

let sensor_to_int = function Accel -> 0 | Ppg -> 1 | Temperature -> 2 | Light -> 3

let sensor_of_int = function
  | 0 -> Some Accel
  | 1 -> Some Ppg
  | 2 -> Some Temperature
  | 3 -> Some Light
  | _ -> None

let all_sensors = [ Accel; Ppg; Temperature; Light ]

type kind =
  | Init
  | Timer_fired of int
  | Sensor_sample of sensor
  | Button of int
  | Tick

type t = { at : int; seq : int; app : int; kind : kind; arg : int }

let handler_names =
  [| "handle_init"; "handle_timer"; "handle_accel"; "handle_ppg";
     "handle_temperature"; "handle_light"; "handle_button"; "handle_tick" |]

let handler_index = function
  | Init -> 0
  | Timer_fired _ -> 1
  | Sensor_sample Accel -> 2
  | Sensor_sample Ppg -> 3
  | Sensor_sample Temperature -> 4
  | Sensor_sample Light -> 5
  | Button _ -> 6
  | Tick -> 7

let handler_name k = handler_names.(handler_index k)

let kind_name = function
  | Init -> "init"
  | Timer_fired id -> Printf.sprintf "timer(%d)" id
  | Sensor_sample Accel -> "accel"
  | Sensor_sample Ppg -> "ppg"
  | Sensor_sample Temperature -> "temperature"
  | Sensor_sample Light -> "light"
  | Button _ -> "button"
  | Tick -> "tick"

let pp ppf t =
  Format.fprintf ppf "event{at=%d app=%d %s arg=%d}" t.at t.app
    (kind_name t.kind) t.arg

let cycles_per_ms = 16_000
let ms_to_cycles ms = ms * cycles_per_ms
let cycles_to_ms cy = cy / cycles_per_ms
