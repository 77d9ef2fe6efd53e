module A = Amulet_link.Asm
module Assembler = Amulet_link.Assembler
module Iso = Amulet_cc.Isolation
module Driver = Amulet_cc.Driver

type app_spec = { name : string; source : string }

type app_build = {
  ab_name : string;
  ab_compiled : Driver.compiled;
  ab_layout : Layout.app_layout;
  ab_handlers : (string * int) list;
  ab_tramp : int;
}

type firmware = {
  fw_mode : Iso.mode;
  fw_image : Amulet_link.Image.t;
  fw_layout : Layout.t;
  fw_apps : app_build list;
}

exception Build_error of string

exception Source_error of {
  app : string;
  loc : Amulet_cc.Srcloc.t;
  msg : string;
}

let errf fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

let valid_name name =
  name <> "" && name <> "os"
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       name

(* Extra stack slack per app: gate register saves (8 words), the
   trampoline's exit-stub push, the gate return address, plus margin. *)
let stack_margin = 64

type compiled = {
  c_name : string;
  c_mode : Iso.mode;
  c_shadow : bool;
  c_cu : Driver.compiled;
  c_code : Assembler.layout;  (** code + exit stub *)
  c_globals : int;  (** globals size, rounded up to a word *)
}

type os = {
  os_mode : Iso.mode;
  os_shadow : bool;
  os_names : string list;
  os_code : Assembler.layout;
  os_data : Assembler.layout;
}

(* phases 1-2: feature check, analysis, checked code generation against
   placeholder bound symbols; phase 3 for the app: its code section
   with the exit stub, laid out once *)
let compile ~mode ?(shadow = false) ?(elide = true) spec =
  let analyze = if elide then Some Amulet_analysis.Range.analyze else None in
  let loop_bounds =
    if elide then Some Amulet_analysis.Range.loop_bounds else None
  in
  let cu =
    try
      Driver.compile ~prefix:spec.name ~mode ~shadow ?analyze ?loop_bounds
        spec.source
    with Amulet_cc.Srcloc.Error (loc, msg) ->
      raise (Source_error { app = spec.name; loc; msg })
  in
  {
    c_name = spec.name;
    c_mode = mode;
    c_shadow = shadow;
    c_cu = cu;
    c_code =
      Assembler.layout (cu.Driver.code @ Stubs.exit_stub ~name:spec.name);
    c_globals =
      (Assembler.size (Assembler.layout cu.Driver.data) + 1) land lnot 1;
  }

(* phase 3 for the OS: its code refers to the apps only through link-time
   symbols, so it depends on the mode, [shadow] and the app names *)
let os ~mode ?(shadow = false) names =
  if List.length (List.sort_uniq compare names) <> List.length names then
    errf "duplicate app names";
  List.iter
    (fun n -> if not (valid_name n) then errf "invalid app name '%s'" n)
    names;
  let os_cfg = Stubs.os_mpu_cfg ~shadow in
  {
    os_mode = mode;
    os_shadow = shadow;
    os_names = names;
    os_code =
      Assembler.layout
        (Amulet_cc.Runtime.items @ Stubs.startup
        @ Stubs.osreturn ~mode ~os_cfg
        @ Stubs.gates ~mode ~os_cfg
        @ List.concat_map
            (fun name -> Stubs.trampoline ~mode ~shadow ~name)
            names);
    os_data = Assembler.layout Stubs.os_globals;
  }

(* phase 4: layout; the linker patches the bounds, borders and stack
   tops the code refers to *)
let link ?(certify = true) os apps =
  if
    List.map (fun c -> c.c_name) apps <> os.os_names
    || List.exists
         (fun c -> c.c_mode <> os.os_mode || c.c_shadow <> os.os_shadow)
         apps
  then
    invalid_arg "Aft.link: apps and OS differ in names, order, mode or shadow";
  let mode = os.os_mode in
  let layout =
    try
      Layout.compute ~os_code_size:(Assembler.size os.os_code)
        ~os_data_size:(Assembler.size os.os_data)
        ~apps:
          (List.map
             (fun c ->
               let stack =
                 if Iso.separate_stacks mode then
                   c.c_cu.Driver.stack_bytes + stack_margin
                 else 0
               in
               (c.c_name, Assembler.size c.c_code, c.c_globals, stack))
             apps)
    with Layout.Does_not_fit m -> errf "%s" m
  in
  let section name base layout = { Amulet_link.Linker.name; base; layout } in
  let sections =
    section "os_code" layout.Layout.os_code_base os.os_code
    :: section "os_data" layout.Layout.os_data_base os.os_data
    :: List.concat
         (List.map2
            (fun c (al : Layout.app_layout) ->
              [
                section (Iso.code_section ~prefix:c.c_name) al.Layout.code_base
                  c.c_code;
                section (Iso.data_section ~prefix:c.c_name) al.Layout.data_base
                  (Assembler.layout
                     (A.Space al.Layout.stack_bytes
                     :: A.label (Iso.stack_top_sym ~prefix:c.c_name)
                     :: c.c_cu.Driver.data));
              ])
            apps layout.Layout.apps)
  in
  let image =
    try Amulet_link.Linker.link ~entry:"__os_start" sections
    with Amulet_link.Linker.Error m -> errf "link: %s" m
  in
  (* post-link certification: stamp the services whose gate-pointer
     validation is statically redundant into the image, where the
     kernel's gate table picks them up *)
  let image =
    if not certify then image
    else
      Amulet_link.Image.with_notes image
        (List.filter_map
           (fun c ->
             match
               Amulet_analysis.Lint.certified_gates ~image ~mode
                 ~prefix:c.c_name
             with
             | [] -> None
             | svcs -> Some (Amulet_cc.Apis.certified_note ~app:c.c_name svcs))
           apps
        @ image.Amulet_link.Image.notes)
  in
  (* stamp loop iteration bounds (app loops from the range analysis,
     runtime-helper loops from their fixed structure) so the binary
     WCET pass can bound back-edges without re-running the source
     analysis.  Keys are [wcet.loop.<header label>]; header labels
     are mangled per app, so they never collide. *)
  let image =
    Amulet_link.Image.with_notes image
      (image.Amulet_link.Image.notes
      @ List.concat_map
          (fun c ->
            List.map
              (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
              c.c_cu.Driver.loops)
          apps
      @ List.map
          (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
          Amulet_cc.Runtime.loop_bounds)
  in
  let apps =
    List.map2
      (fun c lay ->
        let handlers =
          List.map
            (fun h ->
              (h, Amulet_link.Image.symbol image (Iso.mangle ~prefix:c.c_name h)))
            c.c_cu.Driver.handlers
        in
        {
          ab_name = c.c_name;
          ab_compiled = c.c_cu;
          ab_layout = lay;
          ab_handlers = handlers;
          ab_tramp = Amulet_link.Image.symbol image (Stubs.tramp_label c.c_name);
        })
      apps layout.Layout.apps
  in
  { fw_mode = mode; fw_image = image; fw_layout = layout; fw_apps = apps }

(* names are validated before any app is compiled *)
let build ~mode ?shadow ?elide ?certify specs =
  let os = os ~mode ?shadow (List.map (fun s -> s.name) specs) in
  link ?certify os (List.map (compile ~mode ?shadow ?elide) specs)

let find_app fw name = List.find (fun a -> a.ab_name = name) fw.fw_apps
let handler_addr ab h = List.assoc_opt h ab.ab_handlers
