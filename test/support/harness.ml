(* Shared test harness: compile a standalone WearC program, link it
   with the compiler runtime, place it in the paper's memory layout,
   and run it on the simulated MCU.

   Layout (mirroring Fig. 1 for a single "app"):
     0x4400  os_code    runtime helpers + startup stub
     0x8000  prog_code  the compiled program (+ exit stub)
     0xA000  prog_data  stack space (grows down) then globals
   In the separate-stack modes (software-only, MPU) the stack lives at
   the bottom of prog_data, exactly as the AFT arranges for apps. *)

module A = Amulet_link.Asm
module M = Amulet_mcu.Machine
module Mpu = Amulet_mcu.Mpu
module Cc = Amulet_cc

let code_base = 0x8000
let stack_bytes = 0x400

let align_1k a = (a + 0x3FF) land lnot 0x3FF

type run = {
  machine : M.t;
  stop : M.stop_reason;
  image : Amulet_link.Image.t;
}

let return_value r = Amulet_mcu.Registers.get (M.regs r.machine) 12

let build ?(mode = Cc.Isolation.No_isolation) ?(shadow = false) src =
  let cu =
    Cc.Driver.compile ~prefix:"prog" ~mode ~shadow
      ~analyze:Amulet_analysis.Range.analyze src
  in
  let exit_stub =
    [
      A.label "prog$$exit";
      A.mov (A.imm 1) (A.Dabs (A.Num M.halt_port));
      A.jmp "prog$$exit";
    ]
  in
  let uses_own_stack = Cc.Isolation.separate_stacks mode in
  let startup data_base data_limit =
    [ A.label "_start" ]
    @ (if shadow then
         [
           A.mov
             (A.imm Cc.Isolation.shadow_base)
             (A.Dabs (A.Num Cc.Isolation.shadow_sp_addr));
         ]
       else [])
    @ (if uses_own_stack then
         [
           A.mov
             (A.Simm (A.Sym (Cc.Isolation.stack_top_sym ~prefix:"prog")))
             (A.Dreg A.r_sp);
         ]
       else [])
    @ (if Cc.Isolation.uses_mpu mode then
         (* seg1 = everything below the program's data (x-only),
            seg2 = program data/stack (rw), seg3 = above (no access) *)
         [
           A.mov (A.imm (data_base lsr 4)) (A.Dabs (A.Num Mpu.segb1_addr));
           A.mov (A.imm (data_limit lsr 4)) (A.Dabs (A.Num Mpu.segb2_addr));
           A.mov
             (A.imm
                (Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:""
                   ~info:(if shadow then "rw" else "")
                   ()))
             (A.Dabs (A.Num Mpu.sam_addr));
           A.mov (A.imm 0xA501) (A.Dabs (A.Num Mpu.ctl0_addr));
         ]
       else [])
    @ [ A.push (A.sym "prog$$exit"); A.br (A.Sym "prog$main") ]
  in
  let data_items =
    if uses_own_stack then
      (A.Space stack_bytes
      :: A.label (Cc.Isolation.stack_top_sym ~prefix:"prog")
      :: cu.Cc.Driver.data)
    else cu.Cc.Driver.data
  in
  let code = Amulet_link.Assembler.layout (cu.Cc.Driver.code @ exit_stub) in
  let data = Amulet_link.Assembler.layout data_items in
  (* size-driven layout, 1 KiB-aligned like the AFT's *)
  let data_base = align_1k (code_base + Amulet_link.Assembler.size code) in
  let data_limit = align_1k (data_base + Amulet_link.Assembler.size data) in
  if data_limit >= Amulet_mcu.Memory_map.fram_limit then
    failwith
      (Printf.sprintf "harness: program does not fit in FRAM (needs 0x%04X)"
         data_limit);
  let sections =
    [
      { Amulet_link.Linker.name = "os_code"; base = 0x4400;
        layout =
          Amulet_link.Assembler.layout
            (Cc.Runtime.items @ startup data_base data_limit) };
      { Amulet_link.Linker.name = "prog_code"; base = code_base;
        layout = code };
      { Amulet_link.Linker.name = "prog_data"; base = data_base;
        layout = data };
    ]
  in
  (cu, Amulet_link.Linker.link ~entry:"_start" sections)

let run ?mode ?shadow ?(fuel = 2_000_000) src =
  let _cu, image = build ?mode ?shadow src in
  let machine = M.create () in
  Amulet_link.Image.load image machine;
  M.reset machine;
  let stop = M.run ~fuel machine in
  { machine; stop; image }

(* Run and insist the program halted normally; return main's result. *)
let run_ok ?mode ?shadow ?fuel src =
  let r = run ?mode ?shadow ?fuel src in
  (match r.stop with
  | M.Halted -> ()
  | other ->
    Alcotest.failf "program did not halt cleanly: %a@.console: %s"
      M.pp_stop_reason other
      (M.console_contents r.machine));
  r

let check_main ?mode ?shadow ?fuel ~expect src =
  let r = run_ok ?mode ?shadow ?fuel src in
  Alcotest.(check int)
    "main() result" (expect land 0xFFFF)
    (return_value r)
