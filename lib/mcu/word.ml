type width = W8 | W16

let mask = function W8 -> 0xFF | W16 -> 0xFFFF
let sign_bit = function W8 -> 0x80 | W16 -> 0x8000
let norm w v = v land mask w
let is_negative w v = norm w v land sign_bit w <> 0

let to_signed w v =
  let v = norm w v in
  if v land sign_bit w <> 0 then v - (mask w + 1) else v

let of_signed w v = norm w v

let swap_bytes v =
  let v = v land 0xFFFF in
  ((v land 0xFF) lsl 8) lor (v lsr 8)

let sign_extend_byte v =
  let b = v land 0xFF in
  if b land 0x80 <> 0 then b lor 0xFF00 else b

let low_byte v = v land 0xFF
let high_byte v = (v lsr 8) land 0xFF
