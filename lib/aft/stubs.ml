module A = Amulet_link.Asm
module M = Amulet_mcu.Machine
module Map = Amulet_mcu.Memory_map
module Mpu = Amulet_mcu.Mpu
module Iso = Amulet_cc.Isolation

type mpu_cfg = { b1 : A.expr; b2 : A.expr; sam : int }

(* Seg2 is [prefix]'s data section; the linker patches its borders at
   the final layout, as it patches the guards' bounds.  The InfoMem
   segment opens up when it hosts the shadow stack. *)
let mpu_cfg ~shadow ~prefix ~seg3 =
  {
    b1 = A.Border (Iso.data_lo_sym ~prefix);
    b2 = A.Border (Iso.data_hi_sym ~prefix);
    sam =
      Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3
        ~info:(if shadow then "rw" else "")
        ();
  }

let os_mpu_cfg ~shadow = mpu_cfg ~shadow ~prefix:"" ~seg3:"rw"
let app_mpu_cfg ~shadow name = mpu_cfg ~shadow ~prefix:name ~seg3:""

let mpu_unlock = 0xA501 (* password | MPUENA *)

let slot_os_sp = "__os_sp_save"
let slot_app_sp = "__cur_app_sp"
let slot_b1 = "__cur_mpu_b1"
let slot_b2 = "__cur_mpu_b2"
let slot_sam = "__cur_mpu_sam"

let os_globals =
  List.concat_map
    (fun name -> [ A.label name; A.Dword (A.Num 0) ])
    [ slot_os_sp; slot_app_sp; slot_b1; slot_b2; slot_sam ]

let startup =
  [
    A.label "__os_start";
    A.mov (A.imm 1) (A.Dabs (A.Num M.halt_port));
    A.jmp "__os_start";
  ]

let saved_regs = [ 4; 5; 6; 7; 8; 9; 10; 11 ]

let mpu_disable = 0xA500 (* password, MPUENA clear *)

(* Zero-size markers bracketing each MPU-reconfiguration sequence so
   profilers can attribute its cycles.  [tag] must be unique per
   emission site (labels become global linker symbols). *)
let mpu_marker tag part = Printf.sprintf "__mpu$%s$%s" tag part

(* Reconfiguration must disable the MPU first: updating the boundary
   registers one at a time would otherwise leave a transiently
   inconsistent segment map that faults the very code (or slot reads)
   performing the switch. *)
let write_mpu_imm ~tag cfg =
  [
    A.label (mpu_marker tag "b");
    A.mov (A.imm mpu_disable) (A.Dabs (A.Num Mpu.ctl0_addr));
    A.mov (A.Simm cfg.b1) (A.Dabs (A.Num Mpu.segb1_addr));
    A.mov (A.Simm cfg.b2) (A.Dabs (A.Num Mpu.segb2_addr));
    A.mov (A.imm cfg.sam) (A.Dabs (A.Num Mpu.sam_addr));
    A.mov (A.imm mpu_unlock) (A.Dabs (A.Num Mpu.ctl0_addr));
    A.label (mpu_marker tag "e");
  ]

let write_mpu_from_slots ~tag =
  [
    A.label (mpu_marker tag "b");
    A.mov (A.imm mpu_disable) (A.Dabs (A.Num Mpu.ctl0_addr));
    A.mov (A.Sabs (A.Sym slot_b1)) (A.Dabs (A.Num Mpu.segb1_addr));
    A.mov (A.Sabs (A.Sym slot_b2)) (A.Dabs (A.Num Mpu.segb2_addr));
    A.mov (A.Sabs (A.Sym slot_sam)) (A.Dabs (A.Num Mpu.sam_addr));
    A.mov (A.imm mpu_unlock) (A.Dabs (A.Num Mpu.ctl0_addr));
    A.label (mpu_marker tag "e");
  ]

let osreturn ~mode ~os_cfg =
  [ A.label Amulet_cc.Apis.osreturn_label ]
  @ (if Iso.uses_mpu mode then write_mpu_imm ~tag:"osret" os_cfg else [])
  @ (if Iso.separate_stacks mode then
       [ A.mov (A.Sabs (A.Sym slot_os_sp)) (A.Dreg A.r_sp) ]
     else [])
  @ [ A.mov (A.imm 1) (A.Dabs (A.Num M.halt_port)) ]

let gate ~mode ~os_cfg ~svc name =
  [ A.label (Amulet_cc.Apis.gate_label name) ]
  @ List.map (fun r -> A.push (A.Sreg r)) saved_regs
  @ (if Iso.uses_mpu mode then write_mpu_imm ~tag:("g_" ^ name) os_cfg
     else [])
  @ (if Iso.separate_stacks mode then
       [
         A.mov (A.Sreg A.r_sp) (A.Dabs (A.Sym slot_app_sp));
         A.mov (A.Sabs (A.Sym slot_os_sp)) (A.Dreg A.r_sp);
       ]
     else [])
  @ [ A.mov (A.imm svc) (A.Dabs (A.Num M.host_call_port)) ]
  @ (if Iso.separate_stacks mode then
       [ A.mov (A.Sabs (A.Sym slot_app_sp)) (A.Dreg A.r_sp) ]
     else [])
  @ (if Iso.uses_mpu mode then write_mpu_from_slots ~tag:("gx_" ^ name)
     else [])
  @ List.map (fun r -> A.pop r) (List.rev saved_regs)
  @ [ A.ret ]

let gates ~mode ~os_cfg =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun svc (s : Amulet_cc.Apis.service) ->
            gate ~mode ~os_cfg ~svc s.Amulet_cc.Apis.name)
          Amulet_cc.Apis.services))

let tramp_label name = "__tramp_" ^ name
let exit_label name = "__exit_" ^ name

let trampoline ~mode ~shadow ~name =
  let cfg = app_mpu_cfg ~shadow name in
  [
    A.label (tramp_label name);
    (* fresh OS stack for this dispatch *)
    A.mov (A.imm Map.sram_limit) (A.Dreg A.r_sp);
  ]
  @ (if shadow then
       (* reset the InfoMem shadow stack for the new activation *)
       [
         A.mov
           (A.imm Amulet_cc.Isolation.shadow_base)
           (A.Dabs (A.Num Amulet_cc.Isolation.shadow_sp_addr));
       ]
     else [])
  @ (if Iso.separate_stacks mode then
       [ A.mov (A.Sreg A.r_sp) (A.Dabs (A.Sym slot_os_sp)) ]
     else [])
  @ (if Iso.uses_mpu mode then
       [
         A.mov (A.Simm cfg.b1) (A.Dabs (A.Sym slot_b1));
         A.mov (A.Simm cfg.b2) (A.Dabs (A.Sym slot_b2));
         A.mov (A.imm cfg.sam) (A.Dabs (A.Sym slot_sam));
       ]
       @ write_mpu_imm ~tag:("t_" ^ name) cfg
     else [])
  @ (if Iso.separate_stacks mode then
       [ A.mov (A.sym (Iso.stack_top_sym ~prefix:name)) (A.Dreg A.r_sp) ]
     else [])
  @ [
      (* the event argument (R12) becomes the handler's stack argument *)
      A.push (A.Sreg 12);
      A.push (A.sym (exit_label name));
      (* branch to the handler whose address the dispatcher put in R15 *)
      A.mov (A.Sreg 15) (A.Dreg A.r_pc);
    ]

let exit_stub ~name =
  [ A.label (exit_label name); A.br (A.Sym Amulet_cc.Apis.osreturn_label) ]
