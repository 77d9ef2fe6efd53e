type t = {
  mutable ctl : int;
  mutable ex0 : int;
  mutable base : int; (* machine cycle count at last clear/start *)
}

let ctl_addr = 0x0340
let counter_addr = 0x0350
let ex0_addr = 0x0360

let create () = { ctl = 0; ex0 = 0; base = 0 }

let assign t ~from =
  t.ctl <- from.ctl;
  t.ex0 <- from.ex0;
  t.base <- from.base

let handles addr = addr = ctl_addr || addr = counter_addr || addr = ex0_addr
let running t = (t.ctl lsr 4) land 0x3 <> 0
let divider t = (1 lsl ((t.ctl lsr 6) land 0x3)) * ((t.ex0 land 0x7) + 1)

let mmio_write t ~now addr v =
  if addr = ctl_addr then begin
    let clear = v land 0x4 <> 0 in
    t.ctl <- v land lnot 0x4;
    if clear then t.base <- now
  end
  else if addr = ex0_addr then t.ex0 <- v land 0x7

let mmio_read t ~now addr =
  if addr = counter_addr then
    if running t then ((now - t.base) / divider t) land 0xFFFF else 0
  else if addr = ctl_addr then t.ctl
  else if addr = ex0_addr then t.ex0
  else 0
