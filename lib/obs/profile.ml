module M = Amulet_mcu.Machine
module Image = Amulet_link.Image
module Iso = Amulet_cc.Isolation
module Layout = Amulet_aft.Layout

type category = App_code | Guard | Os_gate | Mpu_config | Kernel

let categories = [ App_code; Guard; Os_gate; Mpu_config; Kernel ]

let category_name = function
  | App_code -> "app code"
  | Guard -> "bounds guards"
  | Os_gate -> "OS gate"
  | Mpu_config -> "MPU reconfig"
  | Kernel -> "kernel"

let category_slug = function
  | App_code -> "app_code"
  | Guard -> "guard"
  | Os_gate -> "os_gate"
  | Mpu_config -> "mpu_config"
  | Kernel -> "kernel"

let category_of_slug s =
  List.find_opt (fun c -> category_slug c = s) categories

let counter_name c = "profile." ^ category_slug c ^ ".cycles"

let cat_index = function
  | App_code -> 0
  | Guard -> 1
  | Os_gate -> 2
  | Mpu_config -> 3
  | Kernel -> 4

let ncats = 5

type app_prof = {
  ap_by_cat : int array;
  ap_handlers : (string, int) Hashtbl.t;
}

type t = {
  table : Bytes.t;  (* category index per address *)
  by_cat : int array;
  mutable insns : int;
  mutable exec_cycles : int;
  per_app : (string, app_prof) Hashtbl.t;
  mutable ctx : (app_prof * string) option;
}

let paint t lo hi cat =
  let c = Char.chr (cat_index cat) in
  for a = max 0 lo to min 0xFFFF (hi - 1) do
    Bytes.set t.table a c
  done

(* Guard and MPU-write sequences announce themselves with zero-size
   bracket symbols; recover the [lo, hi) pairs from the symbol table. *)
let bracket_ranges image ~is_start ~end_of =
  List.filter_map
    (fun (name, addr) ->
      if not (is_start name) then None
      else
        match Hashtbl.find_opt image.Image.table (end_of name) with
        | Some e when e > addr -> Some (addr, e)
        | _ -> None)
    image.Image.symbols

let create (fw : Amulet_aft.Aft.firmware) =
  let image = fw.Amulet_aft.Aft.fw_image in
  let layout = fw.Amulet_aft.Aft.fw_layout in
  let t =
    {
      table = Bytes.make 0x10000 (Char.chr (cat_index Kernel));
      by_cat = Array.make ncats 0;
      insns = 0;
      exec_cycles = 0;
      per_app = Hashtbl.create 8;
      ctx = None;
    }
  in
  let sym name = Hashtbl.find_opt image.Image.table name in
  (* OS code: gates, trampolines, osreturn — the context-switch cost *)
  paint t layout.Layout.os_code_base
    (layout.Layout.os_code_base + layout.Layout.os_code_size)
    Os_gate;
  (* runtime helpers do app arithmetic; __bounds_check is a guard *)
  (match (sym Amulet_cc.Runtime.rt_begin, sym Amulet_cc.Runtime.rt_end) with
  | Some b, Some e -> paint t b e App_code
  | _ -> ());
  (match (sym Amulet_cc.Runtime.bc_begin, sym Amulet_cc.Runtime.bc_end) with
  | Some b, Some e -> paint t b e Guard
  | _ -> ());
  (* the boot stub is kernel bookkeeping, not a gate crossing *)
  (match (sym "__os_start", sym Amulet_cc.Apis.osreturn_label) with
  | Some b, Some e when e > b -> paint t b e Kernel
  | _ -> ());
  (* each app: code, then its fault stubs (guard machinery) and exit
     stub (gate crossing) at the end of the code section *)
  List.iter
    (fun (a : Layout.app_layout) ->
      let code_end = a.Layout.code_base + a.Layout.code_size in
      paint t a.Layout.code_base code_end App_code;
      (match sym (Iso.fault_stub_label ~prefix:a.Layout.name Iso.fault_data_lo)
      with
      | Some stubs -> paint t stubs code_end Guard
      | None -> ());
      match sym (Amulet_aft.Stubs.exit_label a.Layout.name) with
      | Some ex -> paint t ex code_end Os_gate
      | None -> ())
    layout.Layout.apps;
  (* bracketed guard sites override whatever code contains them *)
  List.iter
    (fun (b, e) -> paint t b e Guard)
    (bracket_ranges image
       ~is_start:(fun n -> String.ends_with ~suffix:Iso.guard_start_suffix n)
       ~end_of:(fun n ->
         String.sub n 0 (String.length n - String.length Iso.guard_start_suffix)
         ^ Iso.guard_end_suffix));
  (* likewise the MPU-reconfiguration sequences *)
  List.iter
    (fun (b, e) -> paint t b e Mpu_config)
    (bracket_ranges image
       ~is_start:(fun n ->
         String.starts_with ~prefix:"__mpu$" n && String.ends_with ~suffix:"$b" n)
       ~end_of:(fun n -> String.sub n 0 (String.length n - 1) ^ "e"));
  t

let app_prof t name =
  match Hashtbl.find_opt t.per_app name with
  | Some ap -> ap
  | None ->
    let ap = { ap_by_cat = Array.make ncats 0; ap_handlers = Hashtbl.create 8 } in
    Hashtbl.add t.per_app name ap;
    ap

let set_context t ~app ~handler = t.ctx <- Some (app_prof t app, handler)
let clear_context t = t.ctx <- None

let step t ~pc ~cycles =
  let ci = Char.code (Bytes.get t.table (pc land 0xFFFF)) in
  t.by_cat.(ci) <- t.by_cat.(ci) + cycles;
  t.insns <- t.insns + 1;
  t.exec_cycles <- t.exec_cycles + cycles;
  match t.ctx with
  | None -> ()
  | Some (ap, handler) ->
    ap.ap_by_cat.(ci) <- ap.ap_by_cat.(ci) + cycles;
    let prev =
      Option.value ~default:0 (Hashtbl.find_opt ap.ap_handlers handler)
    in
    Hashtbl.replace ap.ap_handlers handler (prev + cycles)

type app_report = {
  ar_app : string;
  ar_cats : (category * int) list;
  ar_handlers : (string * int) list;
}

type report = {
  r_cats : (category * int) list;
  r_insns : int;
  r_exec_cycles : int;
  r_host_cycles : int;
  r_total : int;
  r_machine : int;
  r_apps : app_report list;
}

let cats_of arr = List.map (fun c -> (c, arr.(cat_index c))) categories

let totals t = cats_of t.by_cat

let report t ~machine =
  let apps =
    Hashtbl.fold
      (fun name ap acc ->
        {
          ar_app = name;
          ar_cats = cats_of ap.ap_by_cat;
          ar_handlers =
            List.sort compare
              (Hashtbl.fold (fun h c acc -> (h, c) :: acc) ap.ap_handlers []);
        }
        :: acc)
      t.per_app []
    |> List.sort (fun a b -> compare a.ar_app b.ar_app)
  in
  {
    r_cats = cats_of t.by_cat;
    r_insns = t.insns;
    r_exec_cycles = t.exec_cycles;
    r_host_cycles = machine.M.extra_cycles;
    r_total = t.exec_cycles + machine.M.extra_cycles;
    r_machine = M.cycles machine;
    r_apps = apps;
  }

let pp_cats ppf cats =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 cats in
  List.iter
    (fun (cat, cyc) ->
      Format.fprintf ppf "    %-14s %10d cycles  (%5.1f %%)@."
        (category_name cat) cyc
        (if total = 0 then 0.0 else 100.0 *. float_of_int cyc /. float_of_int total))
    cats

let pp_report ppf r =
  Format.fprintf ppf "cycle breakdown (%d instructions):@." r.r_insns;
  pp_cats ppf r.r_cats;
  Format.fprintf ppf "    %-14s %10d cycles@." "host services" r.r_host_cycles;
  Format.fprintf ppf "  total %d cycles; machine reports %d (%s)@." r.r_total
    r.r_machine
    (if r.r_total = r.r_machine then "exact" else "MISMATCH");
  List.iter
    (fun a ->
      Format.fprintf ppf "  app %s:@." a.ar_app;
      pp_cats ppf a.ar_cats;
      List.iter
        (fun (h, c) -> Format.fprintf ppf "      %-20s %10d cycles@." h c)
        a.ar_handlers)
    r.r_apps
