(* A hand-linked firmware around one app, "app", for certifier tests
   that need an exact instruction sequence.  [body] is the code of the
   handler [app$handle_timer], which then branches to the exit stub.
   The app's code section sits at 0x5000 with its exit stub
   [app$$exit] and a fault stub [app$$fault] after the handler; its
   data section is 0x6000..0x6050, with the stack below
   [app$$stack_top] at 0x6040.  The OS section holds only the
   api_read_accel_xyz gate, a bare RET. *)

module A = Amulet_link.Asm
module M = Amulet_mcu.Machine

let data_lo = 0x6000

let link body =
  let section name base items =
    let layout = Amulet_link.Assembler.layout items in
    { Amulet_link.Linker.name; base; layout }
  in
  let stub name port =
    [ A.label name; A.mov (A.imm 1) (A.Dabs (A.Num port)); A.jmp name ]
  in
  Amulet_link.Linker.link ~entry:"app$handle_timer"
    [
      section "os_code" 0x4400
        [ A.label (Amulet_cc.Apis.gate_label "api_read_accel_xyz"); A.ret ];
      section "app_code" 0x5000
        ((A.label "app$handle_timer" :: body)
        @ (A.br (A.Sym "app$$exit") :: stub "app$$exit" M.halt_port)
        @ stub "app$$fault" M.sw_fault_port);
      section "app_data" data_lo
        [ A.Space 0x40; A.label "app$$stack_top"; A.Space 0x10 ];
    ]
