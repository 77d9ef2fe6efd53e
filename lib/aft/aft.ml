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

let build ~mode ?(shadow = false) ?(elide = true) ?(certify = true) specs =
  let analyze = if elide then Some Amulet_analysis.Range.analyze else None in
  let loop_bounds =
    if elide then Some Amulet_analysis.Range.loop_bounds else None
  in
  (* phase 0: validate *)
  let names = List.map (fun s -> s.name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    errf "duplicate app names";
  List.iter
    (fun n -> if not (valid_name n) then errf "invalid app name '%s'" n)
    names;
  (* phases 1-2: compile each app (feature check, analysis, checked
     code generation against placeholder bound symbols) *)
  let compiled =
    List.map
      (fun s ->
        match
          Driver.compile ~prefix:s.name ~mode ~shadow ?analyze ?loop_bounds
            s.source
        with
        | cu -> (s, cu)
        | exception Amulet_cc.Srcloc.Error (loc, msg) ->
          raise (Source_error { app = s.name; loc; msg }))
      specs
  in
  (* phase 3: sections and stub generation.  Each section is laid out
     once; the layouts that size it are the ones the linker places. *)
  let app_code =
    List.map
      (fun (spec, cu) ->
        Assembler.layout (cu.Driver.code @ Stubs.exit_stub ~name:spec.name))
      compiled
  in
  let os_cfg = Stubs.os_mpu_cfg ~shadow in
  let os_code =
    Assembler.layout
      (Amulet_cc.Runtime.items @ Stubs.startup
      @ Stubs.osreturn ~mode ~os_cfg
      @ Stubs.gates ~mode ~os_cfg
      @ List.concat_map
          (fun (spec, _) -> Stubs.trampoline ~mode ~shadow ~name:spec.name)
          compiled)
  in
  let os_data = Assembler.layout Stubs.os_globals in
  (* phase 4: layout; the linker patches the bounds, borders and stack
     tops the code refers to *)
  let app_inputs =
    List.map2
      (fun (spec, cu) code ->
        let gsize =
          (Assembler.size (Assembler.layout cu.Driver.data) + 1) land lnot 1
        in
        let stack =
          if Iso.separate_stacks mode then cu.Driver.stack_bytes + stack_margin
          else 0
        in
        (spec.name, Assembler.size code, gsize, stack))
      compiled app_code
  in
  let layout =
    try
      Layout.compute ~os_code_size:(Assembler.size os_code)
        ~os_data_size:(Assembler.size os_data) ~apps:app_inputs
    with Layout.Does_not_fit m -> errf "%s" m
  in
  let section name base layout = { Amulet_link.Linker.name; base; layout } in
  let sections =
    section "os_code" layout.Layout.os_code_base os_code
    :: section "os_data" layout.Layout.os_data_base os_data
    :: List.concat
         (List.map2
            (fun ((spec, cu), code) (al : Layout.app_layout) ->
              [
                section (Iso.code_section ~prefix:spec.name) al.Layout.code_base
                  code;
                section (Iso.data_section ~prefix:spec.name) al.Layout.data_base
                  (Assembler.layout
                     (A.Space al.Layout.stack_bytes
                     :: A.label (Iso.stack_top_sym ~prefix:spec.name)
                     :: cu.Driver.data));
              ])
            (List.combine compiled app_code)
            layout.Layout.apps)
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
           (fun spec ->
             match
               Amulet_analysis.Lint.certified_gates ~image ~mode
                 ~prefix:spec.name
             with
             | [] -> None
             | svcs -> Some (Amulet_cc.Apis.certified_note ~app:spec.name svcs))
           specs
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
          (fun (_, cu) ->
            List.map
              (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
              cu.Driver.loops)
          compiled
      @ List.map
          (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
          Amulet_cc.Runtime.loop_bounds)
  in
  let apps =
    List.map2
      (fun (spec, cu) lay ->
        let handlers =
          List.map
            (fun h ->
              (h, Amulet_link.Image.symbol image (Iso.mangle ~prefix:spec.name h)))
            cu.Driver.handlers
        in
        {
          ab_name = spec.name;
          ab_compiled = cu;
          ab_layout = lay;
          ab_handlers = handlers;
          ab_tramp = Amulet_link.Image.symbol image (Stubs.tramp_label spec.name);
        })
      compiled layout.Layout.apps
  in
  { fw_mode = mode; fw_image = image; fw_layout = layout; fw_apps = apps }

let find_app fw name = List.find (fun a -> a.ab_name = name) fw.fw_apps
let handler_addr ab h = List.assoc_opt h ab.ab_handlers
