(* What a firmware build hands on, as one comparable value: the chunks,
   [Image.symbols] in list order, the notes, the entry point, and each
   app's name, trampoline and handler addresses.  Two builds give the
   same firmware when their parts are equal. *)

module Aft = Amulet_aft.Aft
module Image = Amulet_link.Image

let of_firmware (fw : Aft.firmware) =
  let img = fw.Aft.fw_image in
  ( List.map (fun (base, b) -> (base, Bytes.to_string b)) img.Image.chunks,
    img.Image.symbols,
    img.Image.notes,
    img.Image.entry,
    List.map
      (fun (ab : Aft.app_build) ->
        (ab.Aft.ab_name, ab.Aft.ab_tramp, ab.Aft.ab_handlers))
      fw.Aft.fw_apps )
