(* One line per firmware build: each suite app alone and five app
   groups, under every mode, with default options, the shadow stack and
   guard elision off.  A line gives the OS code size and an MD5 over
   everything the build hands on: chunks, symbols in list order, notes,
   entry point, handler and trampoline addresses.  `dune runtest` diffs
   the output against images.expected, so any change to any image
   shows up as a changed line.  The builds are listed in
   Test_support.Image_builds, which test_link also walks. *)

module Aft = Amulet_aft.Aft
module Image = Amulet_link.Image
module Iso = Amulet_cc.Isolation

let digest (fw : Aft.firmware) =
  let b = Buffer.create 65536 in
  let img = fw.Aft.fw_image in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (base, data) ->
      add "chunk %d %d\n" base (Bytes.length data);
      Buffer.add_bytes b data)
    img.Image.chunks;
  List.iter (fun (name, addr) -> add "sym %s %d\n" name addr) img.Image.symbols;
  List.iter (fun (k, v) -> add "note %s %s\n" k v) img.Image.notes;
  add "entry %d\n" img.Image.entry;
  List.iter
    (fun (ab : Aft.app_build) ->
      add "app %s tramp %d\n" ab.Aft.ab_name ab.Aft.ab_tramp;
      List.iter (fun (h, addr) -> add "handler %s %d\n" h addr) ab.Aft.ab_handlers)
    fw.Aft.fw_apps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  Test_support.Image_builds.iter (fun label mode variant fw ->
      Printf.printf "%-15s %-15s %-8s os_code=%d %s\n" label (Iso.name mode)
        variant fw.Aft.fw_layout.Amulet_aft.Layout.os_code_size (digest fw))
