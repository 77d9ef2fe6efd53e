(* Reference for [Amulet_link.Image.make_fetch]: every read
   walks the image's chunk list from its head.  The library remembers
   the chunk of its last read; the two must read the same word at every
   address. *)

let make_fetch (image : Amulet_link.Image.t) =
  let chunks = image.Amulet_link.Image.chunks in
  fun a ->
    let rec go = function
      | [] -> 0
      | (base, b) :: rest ->
        if a >= base && a + 1 < base + Bytes.length b then
          Char.code (Bytes.get b (a - base))
          lor (Char.code (Bytes.get b (a - base + 1)) lsl 8)
        else go rest
    in
    go chunks
