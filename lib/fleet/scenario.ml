module Iso = Amulet_cc.Isolation
module Sensors = Amulet_os.Sensors
module Suite = Amulet_apps.Suite

type traffic_kind = Button | Ble | Tick

type traffic = { tr_kind : traffic_kind; tr_rate : float; tr_burst : int }

type t = {
  sc_name : string;
  sc_devices : int;
  sc_duration_ms : int;
  sc_seed : int;
  sc_modes : (Iso.mode * int) list;
  sc_apps : string list;
  sc_sensors : Sensors.scenario;
  sc_traffic : traffic list;
  sc_churn_ms : int option;
}

let default =
  {
    sc_name = "default";
    sc_devices = 1;
    sc_duration_ms = 1000;
    sc_seed = 1;
    sc_modes = List.map (fun m -> (m, 1)) Iso.all;
    sc_apps = [ "pedometer" ];
    sc_sensors = Sensors.Daily_mix;
    sc_traffic = [];
    sc_churn_ms = None;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic randomness (same finalizer as lib/sec/inject.ml)      *)

module Rng = struct
  let mix (s : int64) =
    let open Int64 in
    let z = add s 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  type rng = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let draw rng bound =
    rng.state <- Int64.add rng.state 0x9E3779B97F4A7C15L;
    let z = mix rng.state in
    Int64.to_int (Int64.shift_right_logical z 2) mod bound
end

let device_seed ~seed ~index =
  let open Int64 in
  let z =
    add (of_int seed) (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)

let mode_weight t = List.fold_left (fun a (_, w) -> a + w) 0 t.sc_modes

let device_mode t ~index =
  let r = index mod mode_weight t in
  let rec pick r = function
    | [] -> assert false (* weights sum to > r by construction *)
    | (m, w) :: tl -> if r < w then m else pick (r - w) tl
  in
  pick r t.sc_modes

let mode_devices t =
  let counts =
    List.map
      (fun (m, _) ->
        let c = ref 0 in
        for i = 0 to t.sc_devices - 1 do
          if device_mode t ~index:i = m then incr c
        done;
        (m, !c))
      t.sc_modes
  in
  List.filter (fun (_, c) -> c > 0) counts

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let traffic_kind_name = function
  | Button -> "button"
  | Ble -> "ble"
  | Tick -> "tick"

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun s -> s <> "")

let int_of ~what s =
  (* accept a trailing "ms" on durations *)
  let s =
    if String.length s > 2 && String.sub s (String.length s - 2) 2 = "ms"
    then String.sub s 0 (String.length s - 2)
    else s
  in
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let split_eq s =
  match String.index_opt s '=' with
  | Some i ->
    Some
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1) )
  | None -> None

let parse_modes args =
  let rec go acc = function
    | [] -> if acc = [] then Error "modes: empty mix" else Ok (List.rev acc)
    | tok :: tl -> (
      match split_eq tok with
      | None -> Error (Printf.sprintf "modes: expected mode=weight, got %S" tok)
      | Some (name, w) -> (
        match Iso.of_string name with
        | None ->
          Error
            (Printf.sprintf
               "modes: unknown mode %S (expected none|amuletc|software|mpu)"
               name)
        | Some m -> (
          match int_of_string_opt w with
          | None -> Error (Printf.sprintf "modes: bad weight %S" w)
          | Some weight when weight <= 0 ->
            Error (Printf.sprintf "modes: weight for %s must be > 0" name)
          | Some weight ->
            if List.mem_assoc m acc then
              Error (Printf.sprintf "modes: %s listed twice" name)
            else go ((m, weight) :: acc) tl)))
  in
  go [] args

let parse_sensors = function
  | "resting" -> Ok Sensors.Resting
  | "walking" -> Ok Sensors.Walking
  | "running" -> Ok Sensors.Running
  | "daily_mix" -> Ok Sensors.Daily_mix
  | s when String.length s > 5 && String.sub s 0 5 = "fall@" -> (
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some ms when ms >= 0 -> Ok (Sensors.Fall_at ms)
    | _ -> Error (Printf.sprintf "sensors: bad fall time in %S" s))
  | s ->
    Error
      (Printf.sprintf
         "sensors: unknown backdrop %S (resting|walking|running|daily_mix|fall@<ms>)"
         s)

(* Arrival times are whole virtual milliseconds, so a faster stream
   could only be clamped; reject it instead. *)
let max_rate = 1000.0

let parse_traffic args =
  match args with
  | [] -> Error "traffic: missing kind"
  | kind :: opts -> (
    let kind =
      match kind with
      | "button" -> Ok Button
      | "ble" -> Ok Ble
      | "tick" -> Ok Tick
      | s -> Error (Printf.sprintf "traffic: unknown kind %S (button|ble|tick)" s)
    in
    match kind with
    | Error e -> Error e
    | Ok tr_kind ->
      let rec go rate burst = function
        | [] -> (
          match rate with
          | None -> Error "traffic: missing rate=<events/sec>"
          | Some r -> Ok { tr_kind; tr_rate = r; tr_burst = burst })
        | tok :: tl -> (
          match split_eq tok with
          | Some ("rate", v) -> (
            match float_of_string_opt v with
            | Some r when r > max_rate ->
              Error
                (Printf.sprintf
                   "traffic: rate must be <= %g (arrivals are whole ms apart), got %S"
                   max_rate v)
            | Some r when r > 0.0 -> go (Some r) burst tl
            | _ -> Error (Printf.sprintf "traffic: rate must be > 0, got %S" v))
          | Some ("burst", v) -> (
            match int_of_string_opt v with
            | Some b when b >= 1 -> go rate b tl
            | _ -> Error (Printf.sprintf "traffic: burst must be >= 1, got %S" v))
          | _ -> Error (Printf.sprintf "traffic: unknown option %S" tok))
      in
      go None 1 opts)

let known_app name =
  match Suite.find name with _ -> true | exception Not_found -> false

let apply t key args =
  let ( let* ) = Result.bind in
  match (key, args) with
  | "scenario", [ name ] -> Ok { t with sc_name = name }
  | "scenario", _ -> Error "scenario: expected exactly one name"
  | "devices", [ n ] ->
    let* n = int_of ~what:"devices" n in
    if n < 1 then Error "devices: must be >= 1"
    else Ok { t with sc_devices = n }
  | "duration", [ n ] ->
    let* n = int_of ~what:"duration" n in
    if n < 1 then Error "duration: must be >= 1 ms"
    else Ok { t with sc_duration_ms = n }
  | "seed", [ n ] ->
    let* n = int_of ~what:"seed" n in
    Ok { t with sc_seed = n }
  | "modes", args ->
    let* mix = parse_modes args in
    Ok { t with sc_modes = mix }
  | "apps", [] -> Error "apps: expected at least one suite app"
  | "apps", args -> (
    match List.find_opt (fun a -> not (known_app a)) args with
    | Some a -> Error (Printf.sprintf "apps: unknown suite app %S" a)
    | None -> Ok { t with sc_apps = args })
  | "sensors", [ s ] ->
    let* sc = parse_sensors s in
    Ok { t with sc_sensors = sc }
  | "traffic", args ->
    let* tr = parse_traffic args in
    Ok { t with sc_traffic = t.sc_traffic @ [ tr ] }
  | "churn", [ n ] ->
    let* n = int_of ~what:"churn" n in
    if n < 1 then Error "churn: must be >= 1 ms"
    else Ok { t with sc_churn_ms = Some n }
  | key, _ -> Error (Printf.sprintf "unknown directive %S" key)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go t lineno = function
    | [] -> Ok t
    | line :: tl -> (
      match tokens (strip_comment line) with
      | [] -> go t (lineno + 1) tl
      | key :: args -> (
        match apply t key args with
        | Ok t -> go t (lineno + 1) tl
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)))
  in
  go default 1 lines

let override ?devices ?duration_ms ?seed t =
  let ( let* ) = Result.bind in
  let set key v t =
    match v with None -> Ok t | Some n -> apply t key [ string_of_int n ]
  in
  let* t = set "devices" devices t in
  let* t = set "duration" duration_ms t in
  set "seed" seed t

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let pp ppf t =
  Format.fprintf ppf
    "@[<v>scenario %s: %d devices x %d ms, seed %d@,modes: %s@,apps: %s@,\
     sensors: %s; %d traffic streams%s@]"
    t.sc_name t.sc_devices t.sc_duration_ms t.sc_seed
    (String.concat " "
       (List.map
          (fun (m, w) -> Printf.sprintf "%s=%d" (Iso.name m) w)
          t.sc_modes))
    (String.concat " " t.sc_apps)
    (match t.sc_sensors with
    | Sensors.Resting -> "resting"
    | Sensors.Walking -> "walking"
    | Sensors.Running -> "running"
    | Sensors.Daily_mix -> "daily_mix"
    | Sensors.Fall_at ms -> Printf.sprintf "fall@%d" ms)
    (List.length t.sc_traffic)
    (match t.sc_churn_ms with
    | Some c -> Printf.sprintf "; churn every %d ms" c
    | None -> "")
