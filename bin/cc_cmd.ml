(* amulet cc: compile WearC sources into a firmware image and report the
   AFT analysis (layout, stack bounds, check counts). *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft

let run mode symbols apps () =
  let fw = Cli.build ~mode apps in
  Format.printf "isolation mode: %s@." (Iso.name mode);
  Format.printf "@.memory layout:@.%a" Amulet_aft.Layout.pp fw.Aft.fw_layout;
  List.iter
    (fun ab ->
      let cu = ab.Aft.ab_compiled in
      Format.printf "@.app %s:@." ab.Aft.ab_name;
      Format.printf "  handlers: %s@."
        (String.concat ", " cu.Amulet_cc.Driver.handlers);
      Format.printf "  stack bound: %d bytes%s@."
        cu.Amulet_cc.Driver.stack_bytes
        (if cu.Amulet_cc.Driver.recursive then
           " (recursion: using the default reservation)"
         else "");
      List.iter
        (fun fi ->
          let s = fi.Amulet_cc.Codegen.fi_sites in
          Format.printf
            "  %-24s frame %3dB, %d checked / %d elided / %d static accesses@."
            fi.Amulet_cc.Codegen.fi_name fi.Amulet_cc.Codegen.fi_frame_bytes
            s.Amulet_cc.Codegen.checked s.Amulet_cc.Codegen.elided
            fi.Amulet_cc.Codegen.fi_static_sites)
        cu.Amulet_cc.Driver.infos)
    fw.Aft.fw_apps;
  Format.printf "@.image: %d bytes in %d chunks@."
    (Amulet_link.Image.total_bytes fw.Aft.fw_image)
    (List.length fw.Aft.fw_image.Amulet_link.Image.chunks);
  if symbols then begin
    Format.printf "@.symbols:@.";
    Amulet_link.Image.pp_symbols Format.std_formatter fw.Aft.fw_image
  end;
  0

open Cmdliner

let symbols =
  Arg.(value & flag & info [ "s"; "symbols" ] ~doc:"Dump the symbol table.")

let cmd =
  Cli.cmd "cc" ~doc:"compile WearC applications into an Amulet firmware image"
    Term.(const run $ Cli.mode $ symbols $ Cli.apps)
