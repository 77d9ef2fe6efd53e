module Map = Amulet_mcu.Memory_map
module Mpu = Amulet_mcu.Mpu

type app_layout = {
  index : int;
  name : string;
  code_base : int;
  code_size : int;
  data_base : int;
  data_limit : int;
  globals_size : int;
  stack_bytes : int;
}

type t = {
  os_code_base : int;
  os_code_size : int;
  os_data_base : int;
  os_data_size : int;
  apps_base : int;
  apps : app_layout list;
}

exception Does_not_fit of string

let align_up a = (a + Mpu.granule - 1) land lnot (Mpu.granule - 1)

let compute ~os_code_size ~os_data_size ~apps =
  let os_code_base = Map.fram_start in
  let os_data_base = align_up (os_code_base + os_code_size) in
  let apps_base = align_up (os_data_base + os_data_size) in
  let place (cursor, index, acc) (name, code_size, globals_size, stack_bytes) =
    let code_base = cursor in
    let data_base = align_up (code_base + code_size) in
    (* data segment: [stack][globals], rounded to a whole granule *)
    let data_limit = align_up (data_base + stack_bytes + globals_size) in
    (* give any rounding slack to the stack *)
    let globals_base = data_limit - globals_size in
    let app =
      {
        index; name; code_base; code_size; data_base; data_limit;
        globals_size; stack_bytes = globals_base - data_base;
      }
    in
    (data_limit, index + 1, app :: acc)
  in
  let cursor, _, apps_rev = List.fold_left place (apps_base, 0, []) apps in
  if cursor > Map.fram_limit then
    raise
      (Does_not_fit
         (Printf.sprintf "firmware needs 0x%04X but FRAM ends at 0x%04X" cursor
            Map.fram_limit));
  {
    os_code_base; os_code_size; os_data_base; os_data_size; apps_base;
    apps = List.rev apps_rev;
  }

let pp ppf t =
  Format.fprintf ppf "os_code  %04X..%04X@." t.os_code_base
    (t.os_code_base + t.os_code_size);
  Format.fprintf ppf "os_data  %04X..%04X@." t.os_data_base
    (t.os_data_base + t.os_data_size);
  List.iter
    (fun a ->
      Format.fprintf ppf "%-12s code %04X..%04X  data %04X..%04X (stack %d)@."
        a.name a.code_base (a.code_base + a.code_size) a.data_base a.data_limit
        a.stack_bytes)
    t.apps
