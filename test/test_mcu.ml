(* Unit and property tests for the MCU simulator. *)

open Amulet_mcu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Word arithmetic, as the CPU's executors compute it: one
   register-to-register instruction on a bare CPU whose bus is never
   touched. *)

type alu_out = { value : int; carry : bool; overflow : bool }

(* [op.width R6, R5] with R5 = [dst], R6 = [src] and C = [carry]. *)
let alu ?(carry = false) op width dst src =
  let cpu =
    Cpu.create { Cpu.read = (fun _ _ -> 0); write = (fun _ _ _ -> ()) }
  in
  let regs = cpu.Cpu.regs in
  Registers.set regs 5 dst;
  Registers.set regs 6 src;
  Registers.set_carry regs carry;
  Cpu.exec_fmt1 cpu op width (Opcode.S_reg 6) (Opcode.D_reg 5) ~src_ext_addr:0
    ~dst_ext_addr:0;
  {
    value = Registers.get regs 5;
    carry = Registers.carry regs;
    overflow = Registers.overflow regs;
  }

let test_word_add () =
  let r = alu Opcode.ADD Word.W16 0xFFFF 1 in
  check_int "wrap value" 0 r.value;
  check_bool "carry out" true r.carry;
  check_bool "no overflow" false r.overflow;
  let r = alu Opcode.ADD Word.W16 0x7FFF 1 in
  check_int "0x8000" 0x8000 r.value;
  check_bool "overflow" true r.overflow;
  check_bool "no carry" false r.carry

let test_word_sub () =
  let r = alu Opcode.SUB Word.W16 5 3 in
  check_int "5-3" 2 r.value;
  check_bool "no borrow -> carry set" true r.carry;
  let r = alu Opcode.SUB Word.W16 3 5 in
  check_int "3-5" 0xFFFE r.value;
  check_bool "borrow -> carry clear" false r.carry

let test_word_byte () =
  let r = alu Opcode.ADD Word.W8 0xFF 1 in
  check_int "byte wrap" 0 r.value;
  check_bool "byte carry" true r.carry;
  check_int "sign extend" 0xFF80 (Word.sign_extend_byte 0x80);
  check_int "swap" 0x3412 (Word.swap_bytes 0x1234)

let test_word_dadd () =
  let r = alu Opcode.DADD Word.W16 0x1299 0x0001 in
  check_int "BCD 1299+1" 0x1300 r.value;
  let r = alu Opcode.DADD Word.W16 0x9999 0x0001 in
  check_int "BCD wrap" 0x0000 r.value;
  check_bool "BCD carry" true r.carry

let test_word_signed () =
  check_int "to_signed" (-1) (Word.to_signed Word.W16 0xFFFF);
  check_int "to_signed byte" (-128) (Word.to_signed Word.W8 0x80);
  check_int "of_signed" 0xFFFF (Word.of_signed Word.W16 (-1))

(* ------------------------------------------------------------------ *)
(* Encode / decode *)

let test_known_encodings () =
  let enc i = Encode.encode i in
  check_int "MOV R5,R6" 0x4506
    (List.hd (enc (Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_reg 5, Opcode.D_reg 6))));
  (* ADD #1, R5 uses constant generator R3/As=1: INC R5 = 0x5315 *)
  check_int "ADD #1,R5 via CG" 0x5315
    (List.hd (enc (Opcode.Fmt1 (Opcode.ADD, Word.W16, Opcode.S_immediate 1, Opcode.D_reg 5))));
  check_int "PUSH R5" 0x1205
    (List.hd (enc (Opcode.Fmt2 (Opcode.PUSH, Word.W16, Opcode.S_reg 5))));
  check_int "JMP +0" 0x3C00 (List.hd (enc (Opcode.Jump (Opcode.JMP, 0))));
  check_int "RETI" 0x1300 (List.hd (enc Opcode.Reti));
  (* #42 needs an extension word *)
  let ws = enc (Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_immediate 42, Opcode.D_reg 7)) in
  check_int "two words" 2 (List.length ws);
  check_int "ext word" 42 (List.nth ws 1)

let test_cg_immediates () =
  List.iter
    (fun n ->
      let i = Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_immediate n, Opcode.D_reg 5) in
      check_int (Printf.sprintf "CG #%d one word" n) 1 (List.length (Encode.encode i)))
    [ 0; 1; 2; 4; 8; 0xFFFF ]

(* Canonical instruction generator for the round-trip property. *)
let gen_reg_src = QCheck2.Gen.oneofl [ 1; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
let gen_reg_any = gen_reg_src
let gen_imm16 = QCheck2.Gen.int_range 0 0xFFFF
let gen_offset = QCheck2.Gen.int_range (-32768) 32767

let gen_src width =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Opcode.S_reg r) gen_reg_src;
      map2 (fun r x -> Opcode.S_indexed (r, x)) gen_reg_src gen_offset;
      map (fun a -> Opcode.S_absolute a) gen_imm16;
      map (fun r -> Opcode.S_indirect r) gen_reg_src;
      map (fun r -> Opcode.S_indirect_inc r) gen_reg_src;
      map (fun n -> Opcode.S_immediate (n land Word.mask width)) gen_imm16;
    ]

let gen_dst =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Opcode.D_reg r) gen_reg_any;
      map2 (fun r x -> Opcode.D_indexed (r, x)) gen_reg_src gen_offset;
      map (fun a -> Opcode.D_absolute a) gen_imm16;
    ]

let gen_width = QCheck2.Gen.oneofl [ Word.W8; Word.W16 ]

let gen_instr =
  let open QCheck2.Gen in
  let fmt1 =
    oneofl
      [ Opcode.MOV; Opcode.ADD; Opcode.ADDC; Opcode.SUBC; Opcode.SUB;
        Opcode.CMP; Opcode.DADD; Opcode.BIT; Opcode.BIC; Opcode.BIS;
        Opcode.XOR; Opcode.AND ]
    >>= fun op ->
    gen_width >>= fun w ->
    gen_src w >>= fun s ->
    gen_dst >|= fun d -> Opcode.Fmt1 (op, w, s, d)
  in
  let fmt2 =
    oneofl [ Opcode.RRC; Opcode.SWPB; Opcode.RRA; Opcode.SXT; Opcode.PUSH; Opcode.CALL ]
    >>= fun op ->
    (match op with
    | Opcode.RRC | Opcode.RRA | Opcode.PUSH -> gen_width
    | _ -> return Word.W16)
    >>= fun w ->
    gen_src w >>= fun s ->
    let s =
      (* read-modify-write ops cannot take immediates *)
      match (op, s) with
      | (Opcode.RRC | Opcode.RRA | Opcode.SWPB | Opcode.SXT), Opcode.S_immediate _ ->
        Opcode.S_reg 5
      | _ -> s
    in
    return (Opcode.Fmt2 (op, w, s))
  in
  let jump =
    oneofl
      [ Opcode.JNE; Opcode.JEQ; Opcode.JNC; Opcode.JC; Opcode.JN;
        Opcode.JGE; Opcode.JL; Opcode.JMP ]
    >>= fun c ->
    int_range (-512) 511 >|= fun off -> Opcode.Jump (c, off)
  in
  oneof [ fmt1; fmt2; jump; return Opcode.Reti ]

let roundtrip_property =
  QCheck2.Test.make ~count:2000 ~name:"encode/decode round-trip" gen_instr
    (fun i ->
      let words = Encode.encode i in
      let decoded, len = Decode.decode_words words in
      decoded = i && len = 2 * List.length words)

(* ------------------------------------------------------------------ *)
(* Machine-level execution helpers *)

let code_base = 0x4400

let build_machine insns =
  let m = Machine.create () in
  let words = List.concat_map Encode.encode insns in
  Machine.load_words m ~addr:code_base words;
  Machine.set_reset_vector m code_base;
  Machine.reset m;
  m

let halt_insn =
  Opcode.Fmt1 (Opcode.MOV, Word.W16, Opcode.S_immediate 1,
               Opcode.D_absolute Machine.halt_port)

let run_prog insns =
  let m = build_machine (insns @ [ halt_insn ]) in
  let stop = Machine.run m in
  (m, stop)

let expect_halt (m, stop) =
  (match stop with
  | Machine.Halted -> ()
  | other ->
    Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason other);
  m

let reg m r = Registers.get (Machine.regs m) r

let test_mov_add () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 5, D_reg 5);
           Fmt1 (ADD, Word.W16, S_immediate 3, D_reg 5);
           Fmt1 (MOV, Word.W16, S_reg 5, D_absolute 0x1C00);
         ])
  in
  check_int "r5" 8 (reg m 5);
  check_int "mem" 8 (Machine.mem_checked_read m Word.W16 0x1C00)

let test_indexed_addressing () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0x1C00, D_reg 6);
           Fmt1 (MOV, Word.W16, S_immediate 0xBEEF, D_indexed (6, 4));
           Fmt1 (MOV, Word.W16, S_indexed (6, 4), D_reg 7);
         ])
  in
  check_int "r7" 0xBEEF (reg m 7);
  check_int "mem@1C04" 0xBEEF (Machine.mem_checked_read m Word.W16 0x1C04)

let test_autoincrement () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0x1111, D_absolute 0x1C00);
           Fmt1 (MOV, Word.W16, S_immediate 0x2222, D_absolute 0x1C02);
           Fmt1 (MOV, Word.W16, S_immediate 0x1C00, D_reg 6);
           Fmt1 (ADD, Word.W16, S_indirect_inc 6, D_reg 7);
           Fmt1 (ADD, Word.W16, S_indirect_inc 6, D_reg 7);
         ])
  in
  check_int "sum" 0x3333 (reg m 7);
  check_int "r6 advanced" 0x1C04 (reg m 6)

let test_byte_ops () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0xABCD, D_reg 5);
           (* byte write to register clears the upper byte *)
           Fmt1 (MOV, Word.W8, S_immediate 0x7F, D_reg 5);
           Fmt1 (MOV, Word.W16, S_immediate 0x1234, D_absolute 0x1C00);
           Fmt1 (MOV, Word.W8, S_immediate 0xFF, D_absolute 0x1C00);
         ])
  in
  check_int "byte reg write clears high" 0x7F (reg m 5);
  check_int "byte mem write leaves high byte" 0x12FF
    (Machine.mem_checked_read m Word.W16 0x1C00)

let test_call_ret () =
  let open Opcode in
  (* call a function that sets R10, then return; RET is MOV @SP+, PC *)
  let ret = Fmt1 (MOV, Word.W16, S_indirect_inc 1, D_reg 0) in
  (* layout: 0: MOV #f,R9 (2w) ; CALL R9 (1w); HALT (2w); f: MOV #7,R10 (2w); RET (1w) *)
  let f_addr = code_base + (2 + 1 + 2) * 2 in
  let m =
    build_machine
      [
        Fmt1 (MOV, Word.W16, S_immediate f_addr, D_reg 9);
        Fmt2 (CALL, Word.W16, S_reg 9);
        halt_insn;
        Fmt1 (MOV, Word.W16, S_immediate 7, D_reg 10);
        ret;
      ]
  in
  let stop = Machine.run m in
  (match stop with
  | Machine.Halted -> ()
  | other -> Alcotest.failf "stop: %a" Machine.pp_stop_reason other);
  check_int "r10 set by callee" 7 (reg m 10);
  check_int "sp restored" Memory_map.sram_limit (reg m 1)

let test_push_pop () =
  let open Opcode in
  let pop r = Fmt1 (MOV, Word.W16, S_indirect_inc 1, D_reg r) in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0xAAAA, D_reg 5);
           Fmt2 (PUSH, Word.W16, S_reg 5);
           Fmt1 (MOV, Word.W16, S_immediate 0, D_reg 5);
           pop 6;
         ])
  in
  check_int "popped" 0xAAAA (reg m 6);
  check_int "sp" Memory_map.sram_limit (reg m 1)

let test_jumps_and_flags () =
  let open Opcode in
  (* loop: R5 counts 5..1, accumulate R6 += R5 *)
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 5, D_reg 5);
           Fmt1 (MOV, Word.W16, S_immediate 0, D_reg 6);
           (* loop body at offset: add, dec, jnz *)
           Fmt1 (ADD, Word.W16, S_reg 5, D_reg 6);
           Fmt1 (SUB, Word.W16, S_immediate 1, D_reg 5);
           Jump (JNE, -3);
         ])
  in
  check_int "1+2+3+4+5" 15 (reg m 6)

let test_signed_jumps () =
  let open Opcode in
  (* JL taken when -1 < 1 *)
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0xFFFF, D_reg 5);
           Fmt1 (CMP, Word.W16, S_immediate 1, D_reg 5);
           (* R5 - 1 = -2: N=1 V=0 -> JL taken; skip the 2-word MOV *)
           Jump (JL, 2);
           Fmt1 (MOV, Word.W16, S_immediate 99, D_reg 7);
           Fmt1 (MOV, Word.W16, S_immediate 42, D_reg 8);
         ])
  in
  check_int "skipped" 0 (reg m 7);
  check_int "landed" 42 (reg m 8)

let test_rrc_rra_swpb_sxt () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0x8001, D_reg 5);
           Fmt2 (RRA, Word.W16, S_reg 5);
           Fmt1 (MOV, Word.W16, S_immediate 0x1234, D_reg 6);
           Fmt2 (SWPB, Word.W16, S_reg 6);
           Fmt1 (MOV, Word.W16, S_immediate 0x0080, D_reg 7);
           Fmt2 (SXT, Word.W16, S_reg 7);
         ])
  in
  check_int "rra keeps sign" 0xC000 (reg m 5);
  check_int "swpb" 0x3412 (reg m 6);
  check_int "sxt" 0xFF80 (reg m 7)

let test_reti () =
  let open Opcode in
  (* craft an interrupt frame by hand: push SR-to-be and PC-to-be,
     then RETI must restore both *)
  let target = code_base + 100 in
  let m =
    build_machine
      [
        (* pushes: PC first then SR (reverse pop order of RETI) *)
        Fmt2 (PUSH, Word.W16, S_immediate target);
        Fmt2 (PUSH, Word.W16, S_immediate 0x0005); (* C and N set *)
        Reti;
      ]
  in
  (* place a halt at the interrupt-return target *)
  Machine.load_words m ~addr:target (Encode.encode halt_insn);
  (match Machine.run m with
  | Machine.Halted -> ()
  | other -> Alcotest.failf "stop: %a" Machine.pp_stop_reason other);
  check_bool "carry restored" true (Registers.carry (Machine.regs m));
  check_bool "negative restored" true (Registers.negative (Machine.regs m));
  check_int "sp unwound" Memory_map.sram_limit (reg m 1)

let test_sr_as_operand () =
  let open Opcode in
  (* set carry via BIS #1, SR; verify ADDC consumes it *)
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (BIS, Word.W16, S_immediate 1, D_reg 2);
           Fmt1 (MOV, Word.W16, S_immediate 10, D_reg 5);
           Fmt1 (ADDC, Word.W16, S_immediate 0, D_reg 5);
         ])
  in
  check_int "carry added" 11 (reg m 5)

let test_byte_push_pop () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0x12AB, D_reg 5);
           Fmt2 (PUSH, Word.W8, S_reg 5);
           (* byte pop: read the byte back *)
           Fmt1 (MOV, Word.W8, S_indirect_inc 1, D_reg 6);
         ])
  in
  check_int "byte pushed and popped" 0xAB (reg m 6);
  check_int "sp word-aligned throughout" Memory_map.sram_limit (reg m 1)

let test_cg_byte_mode () =
  let open Opcode in
  (* CG -1 in byte mode is 0xFF *)
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0, D_reg 5);
           Fmt1 (MOV, Word.W8, S_immediate 0xFF, D_reg 5);
         ])
  in
  check_int "byte CG -1" 0xFF (reg m 5);
  check_int "one word only" 1
    (List.length
       (Encode.encode (Fmt1 (MOV, Word.W8, S_immediate 0xFF, D_reg 5))))

let disasm_nonempty_property =
  QCheck2.Test.make ~count:1000 ~name:"disassembler renders every instruction"
    gen_instr (fun i ->
      let words = Encode.encode i in
      let arr = Array.of_list (words @ [ 0; 0 ]) in
      let fetch a = arr.(a / 2) in
      let lines =
        Disasm.range ~fetch ~lo:0 ~hi:(2 * List.length words) ()
      in
      List.length lines >= 1
      && List.for_all (fun l -> String.length l.Disasm.text > 4) lines)

let test_console_output () =
  let open Opcode in
  let emit c =
    Fmt1 (MOV, Word.W8, S_immediate (Char.code c), D_absolute Machine.console_port)
  in
  let m = expect_halt (run_prog [ emit 'h'; emit 'i' ]) in
  Alcotest.(check string) "console" "hi" (Machine.console_contents m)

let test_unmapped_faults () =
  let open Opcode in
  let m, stop =
    run_prog [ Fmt1 (MOV, Word.W16, S_immediate 1, D_absolute 0x3000) ]
  in
  ignore m;
  match stop with
  | Machine.Faulted (Machine.Unmapped { addr = 0x3000; write = true; _ }) -> ()
  | other -> Alcotest.failf "expected unmapped fault, got %a" Machine.pp_stop_reason other

(* ------------------------------------------------------------------ *)
(* Cycle counting *)

let cycles_of insns =
  let m = build_machine (insns @ [ halt_insn ]) in
  ignore (Machine.run m);
  (* subtract the halt instruction's cost: MOV #1 -> &abs. #1 is CG: 4 cycles *)
  Machine.cycles m - 4

let test_cycle_counts () =
  let open Opcode in
  check_int "reg-reg 1 cycle" 1 (cycles_of [ Fmt1 (MOV, Word.W16, S_reg 5, D_reg 6) ]);
  check_int "imm(CG)->reg 1 cycle" 1
    (cycles_of [ Fmt1 (MOV, Word.W16, S_immediate 2, D_reg 6) ]);
  check_int "imm->reg 2 cycles" 2
    (cycles_of [ Fmt1 (MOV, Word.W16, S_immediate 300, D_reg 6) ]);
  check_int "abs->reg 3" 3 (cycles_of [ Fmt1 (MOV, Word.W16, S_absolute 0x1C00, D_reg 6) ]);
  check_int "reg->abs 4" 4 (cycles_of [ Fmt1 (MOV, Word.W16, S_reg 6, D_absolute 0x1C00) ]);
  check_int "imm->abs 5" 5
    (cycles_of [ Fmt1 (MOV, Word.W16, S_immediate 300, D_absolute 0x1C00) ]);
  check_int "jump 2" 2 (cycles_of [ Jump (JMP, 0) ]);
  check_int "push reg 3" 3 (cycles_of [ Fmt2 (PUSH, Word.W16, S_reg 5) ])

let test_timer_quantization () =
  let open Opcode in
  (* configure /16: ID=/8 (bits 6-7 = 3), MC=continuous (bit 4), TACLR; EX0=/2 *)
  let ctl = (3 lsl 6) lor (2 lsl 4) lor 0x4 in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 1, D_absolute Timer.ex0_addr);
           Fmt1 (MOV, Word.W16, S_immediate ctl, D_absolute Timer.ctl_addr);
           (* burn some cycles *)
           Fmt1 (MOV, Word.W16, S_immediate 20, D_reg 5);
           Fmt1 (SUB, Word.W16, S_immediate 1, D_reg 5);
           Jump (JNE, -2);
           Fmt1 (MOV, Word.W16, S_absolute Timer.counter_addr, D_reg 10);
         ])
  in
  let ticks = reg m 10 in
  (* ~20 iterations x 3 cycles: at /16 that is a handful of ticks *)
  check_bool "timer ticked" true (ticks >= 1 && ticks < 32)

(* ------------------------------------------------------------------ *)
(* MPU behaviour *)

let test_mpu_disabled_allows_all () =
  let mpu = Mpu.create () in
  Alcotest.(check bool)
    "disabled allows" true
    (Mpu.check mpu Mpu.Dwrite 0xF000 = Mpu.Allowed)

let test_mpu_segmentation () =
  let mpu = Mpu.create () in
  Mpu.configure mpu ~b1:0x8000 ~b2:0xC000
    ~sam:(Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:"" ())
    ~enable:true;
  check_bool "seg1 exec ok" true (Mpu.check mpu Mpu.Exec 0x5000 = Mpu.Allowed);
  check_bool "seg1 read denied" true
    (Mpu.check mpu Mpu.Dread 0x5000 = Mpu.Violation Mpu.Seg1);
  check_bool "seg2 write ok" true (Mpu.check mpu Mpu.Dwrite 0x9000 = Mpu.Allowed);
  check_bool "seg2 exec denied" true
    (Mpu.check mpu Mpu.Exec 0x9000 = Mpu.Violation Mpu.Seg2);
  check_bool "seg3 read denied" true
    (Mpu.check mpu Mpu.Dread 0xD000 = Mpu.Violation Mpu.Seg3);
  check_bool "sram not covered" true (Mpu.check mpu Mpu.Dwrite 0x1C00 = Mpu.Allowed);
  check_bool "peripherals not covered" true
    (Mpu.check mpu Mpu.Dwrite 0x0200 = Mpu.Allowed);
  check_int "violation flags recorded" 0x7 (Mpu.violation_flags mpu)

let test_mpu_boundary_granularity () =
  let mpu = Mpu.create () in
  (* boundary requests snap down to 1 KiB *)
  Mpu.configure mpu ~b1:0x8123 ~b2:0xC3FF
    ~sam:(Mpu.sam_bits ~seg1:"rwx" ~seg2:"rwx" ~seg3:"rwx" ())
    ~enable:true;
  check_int "b1 snapped" 0x8000 (Mpu.boundary1 mpu);
  check_int "b2 snapped" 0xC000 (Mpu.boundary2 mpu)

let test_mpu_password () =
  let mpu = Mpu.create () in
  Alcotest.(check bool)
    "wrong password rejected" true
    (Mpu.mmio_write mpu Mpu.ctl0_addr 0x0001 = Mpu.Bad_password);
  Alcotest.(check bool)
    "correct password accepted" true
    (Mpu.mmio_write mpu Mpu.ctl0_addr 0xA501 = Mpu.Write_ok);
  check_bool "enabled" true (Mpu.enabled mpu)

let test_mpu_lock () =
  let mpu = Mpu.create () in
  ignore (Mpu.mmio_write mpu Mpu.segb1_addr 0x0800);
  ignore (Mpu.mmio_write mpu Mpu.ctl0_addr 0xA503) (* enable + lock *);
  Alcotest.(check bool)
    "locked write ignored" true
    (Mpu.mmio_write mpu Mpu.segb1_addr 0x0C00 = Mpu.Locked_ignored);
  check_int "boundary unchanged" 0x8000 (Mpu.boundary1 mpu)

let test_mpu_machine_fault () =
  let open Opcode in
  (* configure MPU so seg3 (>= 0xC000) is no-access, then poke it *)
  let m =
    build_machine
      [
        Fmt1 (MOV, Word.W16, S_immediate 0x0800, D_absolute Mpu.segb1_addr);
        Fmt1 (MOV, Word.W16, S_immediate 0x0C00, D_absolute Mpu.segb2_addr);
        Fmt1 (MOV, Word.W16,
              S_immediate (Mpu.sam_bits ~seg1:"rwx" ~seg2:"rw" ~seg3:"" ()),
              D_absolute Mpu.sam_addr);
        Fmt1 (MOV, Word.W16, S_immediate 0xA501, D_absolute Mpu.ctl0_addr);
        Fmt1 (MOV, Word.W16, S_immediate 0xDEAD, D_absolute 0xD000);
        halt_insn;
      ]
  in
  match Machine.run m with
  | Machine.Faulted (Machine.Mpu_violation { segment = Mpu.Seg3; addr = 0xD000; _ }) -> ()
  | other -> Alcotest.failf "expected MPU fault, got %a" Machine.pp_stop_reason other

let test_mpu_exec_only_blocks_read () =
  let open Opcode in
  (* seg1 execute-only: code may run but cannot read itself *)
  let m =
    build_machine
      [
        Fmt1 (MOV, Word.W16, S_immediate 0x0800, D_absolute Mpu.segb1_addr);
        Fmt1 (MOV, Word.W16, S_immediate 0x0C00, D_absolute Mpu.segb2_addr);
        Fmt1 (MOV, Word.W16,
              S_immediate (Mpu.sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:"rw" ()),
              D_absolute Mpu.sam_addr);
        Fmt1 (MOV, Word.W16, S_immediate 0xA501, D_absolute Mpu.ctl0_addr);
        (* reading our own code region must fault *)
        Fmt1 (MOV, Word.W16, S_absolute code_base, D_reg 5);
        halt_insn;
      ]
  in
  match Machine.run m with
  | Machine.Faulted (Machine.Mpu_violation { access = Mpu.Dread; segment = Mpu.Seg1; _ }) ->
    ()
  | other -> Alcotest.failf "expected exec-only fault, got %a" Machine.pp_stop_reason other

let test_sw_fault_port () =
  let open Opcode in
  let m, stop =
    run_prog [ Fmt1 (MOV, Word.W16, S_immediate 3, D_absolute Machine.sw_fault_port) ]
  in
  ignore m;
  match stop with
  | Machine.Sw_fault 3 -> ()
  | other -> Alcotest.failf "expected sw fault, got %a" Machine.pp_stop_reason other

let test_stats_counting () =
  let open Opcode in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 1, D_absolute 0x1C00);
           Fmt1 (MOV, Word.W16, S_absolute 0x1C00, D_reg 5);
           Fmt1 (MOV, Word.W16, S_reg 5, D_reg 6);
         ])
  in
  check_int "data reads" 1 m.Machine.stats.Trace.data_reads;
  check_int "data writes" 1 m.Machine.stats.Trace.data_writes

(* ------------------------------------------------------------------ *)
(* More properties *)

let gen_width = QCheck2.Gen.oneofl [ Word.W8; Word.W16 ]

let alu_add_property =
  QCheck2.Test.make ~count:2000 ~name:"ALU add matches reference"
    QCheck2.Gen.(triple gen_width (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (w, a, b) ->
      let r = alu Opcode.ADD w a b in
      let mask = Word.mask w in
      let reference = (a land mask) + (b land mask) in
      r.value = reference land mask && r.carry = (reference > mask))

let alu_sub_borrow_property =
  QCheck2.Test.make ~count:2000 ~name:"ALU sub carry = not-borrow"
    QCheck2.Gen.(triple gen_width (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (w, a, b) ->
      let mask = Word.mask w in
      let a = a land mask and b = b land mask in
      let r = alu Opcode.SUB w a b in
      r.value = (a - b) land mask && r.carry = (a >= b))

let alu_overflow_property =
  (* signed overflow iff the true sum leaves the signed range *)
  QCheck2.Test.make ~count:2000 ~name:"ALU add signed overflow"
    QCheck2.Gen.(pair (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (a, b) ->
      let r = alu Opcode.ADD Word.W16 a b in
      let sa = Word.to_signed Word.W16 a and sb = Word.to_signed Word.W16 b in
      let s = sa + sb in
      r.overflow = (s < -32768 || s > 32767))

let dadd_property =
  (* on BCD-valid operands DADD is decimal addition *)
  let gen_bcd =
    QCheck2.Gen.(
      map
        (fun (a, b, c, d) -> (a * 1000) + (b * 100) + (c * 10) + d)
        (quad (int_range 0 9) (int_range 0 9) (int_range 0 9) (int_range 0 9)))
  in
  let to_bcd n =
    (n / 1000 * 0x1000) + (n / 100 mod 10 * 0x100) + (n / 10 mod 10 * 0x10)
    + (n mod 10)
  in
  let of_decimal n = to_bcd (n mod 10000) in
  QCheck2.Test.make ~count:1000 ~name:"DADD is decimal addition"
    QCheck2.Gen.(pair gen_bcd gen_bcd)
    (fun (da, db) ->
      let r = alu Opcode.DADD Word.W16 (to_bcd da) (to_bcd db) in
      r.value = of_decimal (da + db) && r.carry = (da + db > 9999))

let decode_totality_property =
  (* any word either decodes or raises Illegal — never anything else *)
  QCheck2.Test.make ~count:5000 ~name:"decode total on random words"
    QCheck2.Gen.(triple (int_range 0 0xFFFF) (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (w0, w1, w2) ->
      match Decode.decode_words [ w0; w1; w2 ] with
      | _, len -> len >= 2 && len <= 6
      | exception Decode.Illegal _ -> true)

(* Words weighted toward Format II, where the forms [Encode] refuses
   (byte-mode SWPB/SXT/CALL, read-modify-write of an immediate) live. *)
let gen_word_triple =
  let open QCheck2.Gen in
  triple
    (oneof [ int_range 0 0xFFFF; int_range 0x1000 0x13FF ])
    (int_range 0 0xFFFF) (int_range 0 0xFFFF)

let decode_reencodes_property =
  QCheck2.Test.make ~count:5000 ~name:"decoded words re-encode"
    gen_word_triple (fun (w0, w1, w2) ->
      match Decode.decode_words [ w0; w1; w2 ] with
      | exception Decode.Illegal _ -> true
      | i, _ -> (
        match Encode.encode i with
        | _ -> true
        | exception Invalid_argument _ -> false))

(* Whatever the words, the machine answers with a stop reason. *)
let run_total_property =
  QCheck2.Test.make ~count:2000 ~name:"run total on random words"
    gen_word_triple (fun (w0, w1, w2) ->
      let m = Machine.create () in
      Machine.load_words m ~addr:code_base [ w0; w1; w2 ];
      Machine.set_reset_vector m code_base;
      Machine.reset m;
      match Machine.run ~fuel:8 m with _ -> true)

let cycles_bounds_property =
  QCheck2.Test.make ~count:2000 ~name:"cycle costs within hardware bounds"
    gen_instr (fun i ->
      let c = Cycles.cycles i in
      c >= 1 && c <= 6)

let encode_length_property =
  QCheck2.Test.make ~count:2000 ~name:"encoded length matches decode length"
    gen_instr (fun i ->
      let words = Encode.encode i in
      let _, len = Decode.decode_words (words @ [ 0; 0 ]) in
      len = 2 * List.length words)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Trace ring and machine observability hooks *)

let test_ring_wraparound () =
  let ring = Trace.create_ring ~capacity:4 in
  for i = 0 to 5 do
    Trace.record ring (Trace.Fault_event (Printf.sprintf "e%d" i))
  done;
  let names =
    List.map
      (function Trace.Fault_event s -> s | _ -> "?")
      (Trace.events ring)
  in
  Alcotest.(check (list string))
    "keeps last 4, oldest first" [ "e2"; "e3"; "e4"; "e5" ] names;
  let tiny = Trace.create_ring ~capacity:1 in
  Trace.record tiny (Trace.Fault_event "a");
  Trace.record tiny (Trace.Fault_event "b");
  Alcotest.(check int) "capacity 1" 1 (List.length (Trace.events tiny))

let test_reset_clears_state () =
  let open Opcode in
  let m, stop =
    run_prog
      [
        Fmt1 (MOV, Word.W16, S_immediate 0x1234, D_absolute 0x1C00);
        Fmt1 (MOV, Word.W8, S_immediate (Char.code 'x'),
              D_absolute Machine.console_port);
      ]
  in
  let m = expect_halt (m, stop) in
  Alcotest.(check bool)
    "stats accumulated" true
    (m.Machine.stats.Trace.data_writes > 0);
  Alcotest.(check string) "console captured" "x" (Machine.console_contents m);
  let cycles_before = m.Machine.cpu.Cpu.cycles in
  Machine.reset m;
  check_int "stats cleared" 0 m.Machine.stats.Trace.data_writes;
  check_int "fetch stats cleared" 0 m.Machine.stats.Trace.fetch_words;
  check_int "extra cycles cleared" 0 m.Machine.extra_cycles;
  Alcotest.(check string) "console cleared" "" (Machine.console_contents m);
  check_int "cpu cycle counter survives" cycles_before m.Machine.cpu.Cpu.cycles;
  check_int "memory survives" 0x1234 (Machine.mem_checked_read m Word.W16 0x1C00)

let test_bad_password_write_emits_no_io_event () =
  let open Opcode in
  (* a write to an MPU register with the wrong password must fault
     without ever surfacing as an [Io_write] trace event *)
  let m =
    build_machine
      [ Fmt1 (MOV, Word.W16, S_immediate 0x0001, D_absolute Mpu.ctl0_addr) ]
  in
  let io_writes = ref [] in
  m.Machine.on_event <-
    Some
      (function
      | Trace.Io_write { addr; _ } -> io_writes := addr :: !io_writes
      | _ -> ());
  (match Machine.run m with
  | Machine.Faulted (Machine.Mpu_bad_password _) -> ()
  | other ->
    Alcotest.failf "expected bad-password fault, got %a"
      Machine.pp_stop_reason other);
  Alcotest.(check (list int)) "no Io_write for rejected MMIO" [] !io_writes;
  (* and a correctly-passworded write does surface *)
  let m2 =
    build_machine
      [ Fmt1 (MOV, Word.W16, S_immediate 0xA501, D_absolute Mpu.ctl0_addr);
        halt_insn ]
  in
  m2.Machine.on_event <-
    Some
      (function
      | Trace.Io_write { addr; _ } -> io_writes := addr :: !io_writes
      | _ -> ());
  (match Machine.run m2 with
  | Machine.Halted -> ()
  | other -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason other);
  Alcotest.(check bool)
    "accepted MMIO write traced" true
    (List.mem Mpu.ctl0_addr !io_writes)

(* ------------------------------------------------------------------ *)
(* Hook ordering: watchpoints armed mid-step observe whole
   instructions only, deterministically (machine.mli contract). *)

let two_store_prog =
  let open Opcode in
  [
    Fmt1 (MOV, Word.W16, S_immediate 0x1111, D_absolute 0x1C00);
    Fmt1 (MOV, Word.W16, S_immediate 0x2222, D_absolute 0x1C02);
  ]

let test_midstep_watch_starts_next_insn () =
  (* A watcher installed from inside another watcher's callback (i.e.
     mid-instruction) must not see the tail of the instruction in
     flight — in particular not its Exec event, which is emitted after
     the store that triggered the arming. *)
  let m = build_machine (two_store_prog @ [ halt_insn ]) in
  let inner = ref [] in
  let armed = ref false in
  Machine.add_watch m (fun ev ->
      match ev with
      | Trace.Mem_write { addr = 0x1C00; _ } when not !armed ->
        armed := true;
        Machine.add_watch m (fun e -> inner := e :: !inner)
      | _ -> ());
  (match Machine.run m with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason o);
  let events = List.rev !inner in
  Alcotest.(check bool) "inner watch saw later instructions" true
    (events <> []);
  (match events with
  | Trace.Mem_write { addr; _ } :: _ ->
    check_int "first observed event is the second store" 0x1C02 addr
  | e :: _ ->
    Alcotest.failf "first observed event is not a store: %s"
      (Format.asprintf "%a" Trace.pp_event e)
  | [] -> ());
  List.iter
    (function
      | Trace.Exec { pc; _ } when pc = code_base ->
        Alcotest.fail "inner watch saw a suffix of the arming instruction"
      | Trace.Mem_write { addr = 0x1C00; _ } ->
        Alcotest.fail "inner watch saw the store that armed it"
      | _ -> ())
    events

let test_step_hook_watch_sees_current_insn () =
  (* A watchpoint armed from the pre-instruction hook observes the
     imminent instruction from its first event. *)
  let m = build_machine (two_store_prog @ [ halt_insn ]) in
  let seen = ref [] in
  let armed = ref false in
  Machine.add_step_hook m (fun m ->
      if not !armed then begin
        armed := true;
        Machine.add_watch m (fun e -> seen := e :: !seen)
      end);
  (match Machine.run m with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason o);
  match List.rev !seen with
  | Trace.Mem_write { addr; value; _ } :: _ ->
    check_int "first store observed" 0x1C00 addr;
    check_int "first store value" 0x1111 value
  | e :: _ ->
    Alcotest.failf "expected the first store, saw %s"
      (Format.asprintf "%a" Trace.pp_event e)
  | [] -> Alcotest.fail "step-hook-armed watch saw nothing"

let test_step_hooks_compose_in_order () =
  let m = build_machine [ halt_insn ] in
  let order = ref [] in
  Machine.add_step_hook m (fun _ -> order := "first" :: !order);
  Machine.add_step_hook m (fun _ -> order := "second" :: !order);
  ignore (Machine.run ~fuel:1 m);
  Alcotest.(check (list string))
    "hooks run in installation order" [ "first"; "second" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Raw MPU register access (the fault injector's backdoor). *)

let test_mpu_raw_roundtrip () =
  let t = Mpu.create () in
  List.iter
    (fun (reg, v, expect) ->
      Mpu.raw_set t reg v;
      check_int (Mpu.raw_reg_name reg ^ " round-trip") expect
        (Mpu.raw_get t reg))
    [
      (* control registers keep their low byte *)
      (Mpu.Raw_ctl0, 0xA501, 0x01);
      (Mpu.Raw_ctl1, 0xFF07, 0x07);
      (* boundary registers are 12-bit *)
      (Mpu.Raw_segb1, 0xF123, 0x123);
      (Mpu.Raw_segb2, 0x1456, 0x456);
      (* SAM is a full 16-bit nibble array *)
      (Mpu.Raw_sam, 0x1234, 0x1234);
    ]

let test_mpu_raw_bypasses_password_and_lock () =
  (* the MMIO path demands the 0xA5 password and honours the lock; the
     raw path models a physical upset and must bypass both *)
  let t = Mpu.create () in
  Alcotest.(check bool) "mmio write without password rejected" true
    (Mpu.mmio_write t Mpu.ctl0_addr 0x0001 = Mpu.Bad_password);
  Alcotest.(check bool) "still disabled" false (Mpu.enabled t);
  Mpu.raw_set t Mpu.Raw_ctl0 0x0001;
  Alcotest.(check bool) "raw enable bypasses password" true (Mpu.enabled t);
  (* lock the unit through MMIO, then flip a boundary raw *)
  (match Mpu.mmio_write t Mpu.ctl0_addr 0xA503 with
  | Mpu.Write_ok -> ()
  | _ -> Alcotest.fail "passworded lock write should succeed");
  Alcotest.(check bool) "locked" true (Mpu.locked t);
  Alcotest.(check bool) "mmio boundary write ignored when locked" true
    (Mpu.mmio_write t Mpu.segb1_addr 0x0AB = Mpu.Locked_ignored);
  Mpu.raw_set t Mpu.Raw_segb1 0x0AB;
  check_int "raw boundary write bypasses lock" 0x0AB
    (Mpu.raw_get t Mpu.Raw_segb1);
  (* and the raw backdoor is invisible to the machine's trace layer:
     no Io_write is emitted because no bus access happened *)
  let m = build_machine [ halt_insn ] in
  let io = ref 0 in
  Machine.add_watch m (fun ev ->
      match ev with Trace.Io_write _ -> incr io | _ -> ());
  Mpu.raw_set m.Machine.mpu Mpu.Raw_ctl0 0x0001;
  (match Machine.run m with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason o);
  Alcotest.(check bool) "halt traced" true (!io >= 1);
  Alcotest.(check bool) "raw set emitted no extra Io_write" true (!io = 1)

(* ------------------------------------------------------------------ *)
(* The permission table against the segment walk it is built from. *)

(* One configuration change: a register written over the bus or
   flipped raw, or a whole [Mpu.configure]. *)
type mpu_step =
  | Mmio of Mpu.raw_reg * int
  | Raw of Mpu.raw_reg * int
  | Configure of int * int * int * bool

(* The verdict [Mpu.segment_of_addr] and the MPUSAM nibbles define. *)
let spec_check mpu access addr =
  if not (Mpu.enabled mpu) then Mpu.Allowed
  else
    match Mpu.segment_of_addr mpu addr with
    | None -> Mpu.Allowed
    | Some seg ->
      let shift =
        match seg with
        | Mpu.Seg1 -> 0 | Mpu.Seg2 -> 4 | Mpu.Seg3 -> 8 | Mpu.Seg_info -> 12
      in
      let bit =
        match access with Mpu.Dread -> 1 | Mpu.Dwrite -> 2 | Mpu.Exec -> 4
      in
      if (Mpu.raw_get mpu Mpu.Raw_sam lsr shift) land bit <> 0 then Mpu.Allowed
      else Mpu.Violation seg

let seg_flag = function
  | Mpu.Seg1 -> 1 | Mpu.Seg2 -> 2 | Mpu.Seg3 -> 4 | Mpu.Seg_info -> 8

let apply_mpu_step mpu = function
  | Mmio (reg, v) ->
    let addr, v =
      match reg with
      | Mpu.Raw_ctl0 -> (Mpu.ctl0_addr, 0xA500 lor v)
      | Mpu.Raw_ctl1 -> (Mpu.ctl1_addr, 0xA500 lor v)
      | Mpu.Raw_segb1 -> (Mpu.segb1_addr, v)
      | Mpu.Raw_segb2 -> (Mpu.segb2_addr, v)
      | Mpu.Raw_sam -> (Mpu.sam_addr, v)
    in
    ignore (Mpu.mmio_write mpu addr v)
  | Raw (reg, v) -> Mpu.raw_set mpu reg v
  | Configure (b1, b2, sam, enable) ->
    Mpu.configure mpu ~b1:(b1 lsl 4) ~b2:(b2 lsl 4) ~sam ~enable

(* Each address and access: the same verdict, and a violation sets
   exactly its segment's MPUCTL1 flag. *)
let table_matches_spec mpu addrs =
  List.for_all
    (fun addr ->
      List.for_all
        (fun access ->
          if Mpu.violation_flags mpu <> 0 then Mpu.raw_set mpu Mpu.Raw_ctl1 0;
          let want = spec_check mpu access addr in
          let flags =
            match want with Mpu.Allowed -> 0 | Mpu.Violation s -> seg_flag s
          in
          Mpu.check mpu access addr = want && Mpu.violation_flags mpu = flags)
        [ Mpu.Exec; Mpu.Dread; Mpu.Dwrite ])
    addrs

let every_address = List.init 0x10000 Fun.id

(* The first and last byte of every 128 B granule. *)
let granule_edges =
  List.concat (List.init 512 (fun g -> [ g * 128; (g * 128) + 127 ]))

(* Random single-register writes and whole reconfigurations, with
   values drawn mostly from small pools so configurations recur (memo
   hits) and differ in one field only (stale-table traps); boundary
   values favour the segment map's edges.  Every step is checked at
   each granule's edges, the final configuration at every address. *)
let mpu_table_property =
  let open QCheck2.Gen in
  let boundary =
    frequency
      [ (1, int_range 0 0xFFF);
        (4, oneofl [ 0; 0x440; 0x460; 0x800; 0xA00; 0xC40; 0xFC0; 0xFF8; 0xFFF ]) ]
  in
  let sam =
    frequency
      [ (1, int_range 0 0xFFFF);
        (4, oneofl [ 0x7777; 0x0064; 0x0664; 0x3064; 0x1234 ]) ]
  in
  let value = function
    | Mpu.Raw_ctl0 -> oneofl [ 0; 1; 3; 0x11 ]
    | Mpu.Raw_ctl1 -> int_range 0 0xF
    | Mpu.Raw_segb1 | Mpu.Raw_segb2 -> boundary
    | Mpu.Raw_sam -> sam
  in
  let reg =
    oneofl [ Mpu.Raw_ctl0; Mpu.Raw_ctl1; Mpu.Raw_segb1; Mpu.Raw_segb2; Mpu.Raw_sam ]
  in
  let step =
    frequency
      [
        (3, reg >>= fun r -> map (fun v -> Mmio (r, v)) (value r));
        (3, reg >>= fun r -> map (fun v -> Raw (r, v)) (value r));
        (1, map (fun (b1, b2, s, e) -> Configure (b1, b2, s, e))
              (quad boundary boundary sam bool));
      ]
  in
  QCheck2.Test.make ~count:20 ~name:"permission table = segment walk"
    (list_size (1 -- 40) step) (fun steps ->
      let mpu = Mpu.create () in
      List.for_all
        (fun st ->
          apply_mpu_step mpu st;
          table_matches_spec mpu granule_edges)
        steps
      && table_matches_spec mpu every_address)

(* ------------------------------------------------------------------ *)
(* Predecoded-block engine: byte-PUSH store width, self-modifying-code
   invalidation, reset dropping the cache *)

(* PUSH.B must store a byte, not a word: the high byte of the stack
   slot keeps whatever was there before the push (regression for the
   old [exec_fmt2] PUSH path, which duplicated [push_word] and issued
   the store at word width regardless of the instruction's). *)
let test_byte_push_preserves_slot_high_byte () =
  let open Opcode in
  let slot = Memory_map.sram_limit - 2 in
  let m =
    expect_halt
      (run_prog
         [
           Fmt1 (MOV, Word.W16, S_immediate 0x5A7E, D_absolute slot);
           Fmt1 (MOV, Word.W16, S_immediate 0x12AB, D_reg 5);
           Fmt2 (PUSH, Word.W8, S_reg 5);
           Fmt1 (MOV, Word.W16, S_absolute slot, D_reg 6);
         ])
  in
  check_int "low byte is the pushed value, high byte survives" 0x5AAB
    (reg m 6);
  check_int "sp moved a full word" slot (reg m 1)

(* A store into a later instruction of the block currently executing:
   the block was predecoded in one piece, so without invalidation the
   stale immediate would execute.  The write bumps the code
   generation, the block exits at the next uop boundary, and the
   patched bytes are re-decoded before they run. *)
let test_smc_patch_within_running_block () =
  let open Opcode in
  let base = code_base in
  let m =
    expect_halt
      (run_prog
         [
           (* base+0 *) Fmt1 (MOV, Word.W16, S_immediate 0x2222, D_reg 5);
           (* base+4, patches the immediate at base+10 *)
           Fmt1 (MOV, Word.W16, S_reg 5, D_absolute (base + 10));
           (* base+8 *) Fmt1 (MOV, Word.W16, S_immediate 0x1111, D_reg 7);
         ])
  in
  check_int "patched immediate executed, not the predecoded one" 0x2222
    (reg m 7)

(* A store into a block that already ran and is cached: the dirty span
   must flush the cached block so the re-entry decodes fresh bytes. *)
let test_smc_patch_cached_block_then_reenter () =
  let open Opcode in
  let base = code_base in
  let m =
    expect_halt
      (run_prog
         [
           (* base+0, the patch target's ext word is base+2 *)
           Fmt1 (MOV, Word.W16, S_immediate 0x1111, D_reg 7);
           (* base+4 *) Fmt1 (ADD, Word.W16, S_immediate 1, D_reg 6);
           (* base+6 *) Fmt1 (CMP, Word.W16, S_immediate 2, D_reg 6);
           (* base+8, second pass -> halt at base+18 *) Jump (JEQ, 4);
           (* base+10 *)
           Fmt1 (MOV, Word.W16, S_immediate 0x2222, D_absolute (base + 2));
           (* base+16, back to base+0 *) Jump (JMP, -9);
           (* halt_insn lands at base+18 *)
         ])
  in
  check_int "looped twice" 2 (reg m 6);
  check_int "second pass decoded the patched immediate" 0x2222 (reg m 7)

(* [Machine.reset] must drop the block cache outright.  After reset
   the code-write watches are gone too, so a subsequent patch bumps no
   generation counter: only the reset-time flush can make the second
   boot see the new bytes. *)
let test_reset_drops_code_cache () =
  let open Opcode in
  let base = code_base in
  let m =
    expect_halt
      (run_prog [ Fmt1 (MOV, Word.W16, S_immediate 0x1111, D_reg 7) ])
  in
  Alcotest.(check bool) "blocks cached after a hooks-off run" true
    (Hashtbl.length m.Machine.blocks > 0);
  Machine.reset m;
  check_int "reset empties the block cache" 0
    (Hashtbl.length m.Machine.blocks);
  Memory.write_word m.Machine.mem (base + 2) 0x2222;
  (match Machine.run m with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason o);
  check_int "second boot decodes the post-reset patch" 0x2222 (reg m 7)

let () =
  Alcotest.run "mcu"
    [
      ( "word",
        [
          Alcotest.test_case "add" `Quick test_word_add;
          Alcotest.test_case "sub" `Quick test_word_sub;
          Alcotest.test_case "byte" `Quick test_word_byte;
          Alcotest.test_case "dadd" `Quick test_word_dadd;
          Alcotest.test_case "signed" `Quick test_word_signed;
        ] );
      ( "isa",
        [
          Alcotest.test_case "known encodings" `Quick test_known_encodings;
          Alcotest.test_case "cg immediates" `Quick test_cg_immediates;
        ] );
      qsuite "isa-props"
        [
          roundtrip_property;
          decode_totality_property;
          decode_reencodes_property;
          run_total_property;
          cycles_bounds_property;
          encode_length_property;
          disasm_nonempty_property;
        ];
      qsuite "alu-props"
        [
          alu_add_property;
          alu_sub_borrow_property;
          alu_overflow_property;
          dadd_property;
        ];
      ( "cpu",
        [
          Alcotest.test_case "mov/add" `Quick test_mov_add;
          Alcotest.test_case "indexed" `Quick test_indexed_addressing;
          Alcotest.test_case "autoincrement" `Quick test_autoincrement;
          Alcotest.test_case "byte ops" `Quick test_byte_ops;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "loop+flags" `Quick test_jumps_and_flags;
          Alcotest.test_case "signed jumps" `Quick test_signed_jumps;
          Alcotest.test_case "shifts" `Quick test_rrc_rra_swpb_sxt;
          Alcotest.test_case "reti" `Quick test_reti;
          Alcotest.test_case "sr as operand" `Quick test_sr_as_operand;
          Alcotest.test_case "byte push/pop" `Quick test_byte_push_pop;
          Alcotest.test_case "cg byte mode" `Quick test_cg_byte_mode;
          Alcotest.test_case "console" `Quick test_console_output;
          Alcotest.test_case "unmapped fault" `Quick test_unmapped_faults;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "table" `Quick test_cycle_counts;
          Alcotest.test_case "timer /16" `Quick test_timer_quantization;
        ] );
      ( "mpu",
        [
          Alcotest.test_case "disabled" `Quick test_mpu_disabled_allows_all;
          Alcotest.test_case "segmentation" `Quick test_mpu_segmentation;
          Alcotest.test_case "granularity" `Quick test_mpu_boundary_granularity;
          Alcotest.test_case "password" `Quick test_mpu_password;
          Alcotest.test_case "lock" `Quick test_mpu_lock;
          Alcotest.test_case "machine fault" `Quick test_mpu_machine_fault;
          Alcotest.test_case "exec-only" `Quick test_mpu_exec_only_blocks_read;
          Alcotest.test_case "sw fault port" `Quick test_sw_fault_port;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "raw round-trip" `Quick test_mpu_raw_roundtrip;
          Alcotest.test_case "raw bypasses password+lock" `Quick
            test_mpu_raw_bypasses_password_and_lock;
        ] );
      qsuite "mpu-table" [ mpu_table_property ];
      ( "hooks",
        [
          Alcotest.test_case "mid-step watch deferred" `Quick
            test_midstep_watch_starts_next_insn;
          Alcotest.test_case "step-hook watch sees current insn" `Quick
            test_step_hook_watch_sees_current_insn;
          Alcotest.test_case "step hooks compose" `Quick
            test_step_hooks_compose_in_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "reset clears state" `Quick
            test_reset_clears_state;
          Alcotest.test_case "bad password no io event" `Quick
            test_bad_password_write_emits_no_io_event;
        ] );
      ( "predecode",
        [
          Alcotest.test_case "byte push slot high byte" `Quick
            test_byte_push_preserves_slot_high_byte;
          Alcotest.test_case "smc within running block" `Quick
            test_smc_patch_within_running_block;
          Alcotest.test_case "smc cached block re-entry" `Quick
            test_smc_patch_cached_block_then_reenter;
          Alcotest.test_case "reset drops cache" `Quick
            test_reset_drops_code_cache;
        ] );
    ]
