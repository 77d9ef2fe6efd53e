open Ctype

type pointer =
  | No_pointer
  | Fixed of { bytes : int; cycles : int }
  | Counted of { lo : int; hi : int; bytes_per : int; cycles_per : int }
  | C_string of { max_chars : int; cycles_per : int }

type service = {
  name : string;
  signature : Ctype.t;
  base_charge : int;
  pointer : pointer;
}

let svc name signature base_charge pointer =
  { name; signature; base_charge; pointer }

let fn ret args = Func (ret, args)

(* Base charges are modeled service costs in cycles (datasheet-plausible
   orders of magnitude: sensor FIFO reads, FRAM writes, SPI display
   traffic).  The context switch itself is executed gate code, not
   charged here, so api_null measures the pure switch. *)
let services =
  [|
    (* benchmarking no-op: measures pure context-switch cost *)
    svc "api_null" (fn Void []) 0 No_pointer;
    (* time and power *)
    svc "api_get_time" (fn Uint []) 6 No_pointer;
    svc "api_get_battery" (fn Int []) 10 No_pointer;
    (* sensors: one word copied per sample *)
    svc "api_read_accel" (fn Int [ Ptr Int; Int ]) 16
      (Counted { lo = 1; hi = 64; bytes_per = 2; cycles_per = 2 });
    svc "api_read_accel_xyz" (fn Int [ Ptr Int ]) 22
      (Fixed { bytes = 6; cycles = 6 });
    svc "api_read_heart_rate" (fn Int []) 18 No_pointer;
    svc "api_read_ppg" (fn Int [ Ptr Int; Int ]) 16
      (Counted { lo = 1; hi = 64; bytes_per = 2; cycles_per = 2 });
    svc "api_read_temperature" (fn Int []) 14 No_pointer;
    svc "api_read_light" (fn Int []) 12 No_pointer;
    (* display and UI *)
    svc "api_display_write" (fn Void [ Ptr Char; Int ]) 52
      (C_string { max_chars = 32; cycles_per = 1 });
    svc "api_display_clear" (fn Void []) 40 No_pointer;
    svc "api_button_state" (fn Int []) 6 No_pointer;
    svc "api_led" (fn Void [ Int ]) 4 No_pointer;
    svc "api_buzz" (fn Void [ Int ]) 8 No_pointer;
    (* storage and radio: FRAM writes at 3 cycles/byte, radio at 4 *)
    svc "api_log_append" (fn Int [ Ptr Char; Int ]) 42
      (Counted { lo = 0; hi = 128; bytes_per = 1; cycles_per = 3 });
    svc "api_send_ble" (fn Int [ Ptr Char; Int ]) 72
      (Counted { lo = 0; hi = 128; bytes_per = 1; cycles_per = 4 });
    (* timers and subscriptions *)
    svc "api_set_timer" (fn Int [ Int ]) 20 No_pointer;
    svc "api_cancel_timer" (fn Void [ Int ]) 12 No_pointer;
    svc "api_subscribe" (fn Int [ Int; Int ]) 24 No_pointer;
    svc "api_unsubscribe" (fn Void [ Int ]) 16 No_pointer;
    (* misc *)
    svc "api_rand" (fn Uint []) 8 No_pointer;
  |]

let signatures =
  Array.to_list (Array.map (fun s -> (s.name, s.signature)) services)

let find name = Array.find_opt (fun s -> s.name = name) services

(* ------------------------------------------------------------------ *)
(* Charges *)

let validate_charge = 8
let unknown_charge = 10

let max_count = function
  | No_pointer -> 0
  | Fixed _ -> 1
  | Counted { hi; _ } -> hi
  | C_string { max_chars; _ } -> max_chars

let count pointer word =
  match pointer with
  | Counted { lo; hi; _ } ->
    Int.max lo
      (Int.min hi (Amulet_mcu.Word.to_signed Amulet_mcu.Word.W16 word))
  | _ -> max_count pointer

let validated_bytes pointer n =
  match pointer with
  | No_pointer -> 0
  | Fixed { bytes; _ } -> bytes
  | Counted { bytes_per; _ } -> bytes_per * n
  | C_string _ -> 1

let variable_charge pointer n =
  match pointer with
  | No_pointer -> 0
  | Fixed { cycles; _ } -> cycles
  | Counted { cycles_per; _ } | C_string { cycles_per; _ } -> cycles_per * n

let extent pointer bound =
  validated_bytes pointer
    (match bound with
    | Some word -> count pointer word
    | None -> max_count pointer)

let worst_case_charge ~certified name =
  match find name with
  | None -> unknown_charge
  | Some s ->
    s.base_charge
    + (if certified || s.pointer = No_pointer then 0 else validate_charge)
    + variable_charge s.pointer (max_count s.pointer)

(* ------------------------------------------------------------------ *)
(* Callable externals *)

let gate_prefix = "__gate_"
let gate_label name = gate_prefix ^ name

let service_of_gate_label label =
  if String.starts_with ~prefix:gate_prefix label then
    let n = String.length gate_prefix in
    Some (String.sub label n (String.length label - n))
  else None

let osreturn_label = "__osreturn"

(* A gate's return address plus the eight callee-saved registers it
   pushes before switching stacks ([Stubs.gate]). *)
let gate_footprint = 18

(* [Runtime.helpers] by name (the names are distinct); nothing writes
   it after module initialisation, so domains may share it. *)
let helper_footprints = Hashtbl.of_seq (List.to_seq Runtime.helpers)

let footprint name =
  if String.starts_with ~prefix:gate_prefix name then Some gate_footprint
  else Hashtbl.find_opt helper_footprints name

let externals symbols =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, addr) ->
      if
        String.starts_with ~prefix:gate_prefix name
        || Hashtbl.mem helper_footprints name
        || name = osreturn_label
      then Hashtbl.replace tbl addr name)
    symbols;
  tbl

(* ------------------------------------------------------------------ *)
(* The [cert.gates.<app>] image note *)

let certified_note_key app = "cert.gates." ^ app
let certified_note ~app names =
  (certified_note_key app, String.concat "," names)

let certified_services image ~app =
  match Amulet_link.Image.note image (certified_note_key app) with
  | Some s -> String.split_on_char ',' s
  | None -> []
