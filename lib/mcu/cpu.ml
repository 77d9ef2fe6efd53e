type bus = {
  read : Word.width -> int -> int;
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  bus : bus;
  mutable cycles : int;
  mutable insns : int;
}

let create bus = { regs = Registers.create (); bus; cycles = 0; insns = 0 }

(* Width masks, kept local so the executors make no cross-module call
   per operand. *)
let mask = function Word.W8 -> 0xFF | Word.W16 -> 0xFFFF
let sign = function Word.W8 -> 0x80 | Word.W16 -> 0x8000

(* A resolved operand, packed into one int so resolving allocates
   nothing: a 16-bit memory address as is, a register number or an
   immediate value tagged above the address range. *)
let tag_reg = 0x10000
let tag_imm = 0x20000

let read_op t width p =
  if p < tag_reg then t.bus.read width p
  else if p < tag_imm then t.regs.(p - tag_reg) land mask width
  else p land mask width

let write_op t width value p =
  if p < tag_reg then t.bus.write width p value
  else if p < tag_imm then
    (* Byte writes to a register clear the upper byte (MSP430 rule). *)
    t.regs.(p - tag_reg) <- value land mask width
  else invalid_arg "Cpu: write to immediate"

(* Resolve the source operand.  [ext_addr] is the address of this
   operand's extension word (for PC-relative indexed mode). *)
let resolve_src t width ~ext_addr = function
  | Opcode.S_reg r -> tag_reg lor r
  | Opcode.S_indexed (r, x) ->
    (* x(PC) is symbolic mode: relative to the extension word. *)
    let base = if r = Registers.pc then ext_addr else t.regs.(r) in
    (base + x) land 0xFFFF
  | Opcode.S_absolute a -> a land 0xFFFF
  | Opcode.S_indirect r -> t.regs.(r)
  | Opcode.S_indirect_inc r ->
    let a = t.regs.(r) in
    let inc =
      (* SP stays word-aligned even for byte pops. *)
      if r = Registers.sp then 2
      else match width with Word.W8 -> 1 | Word.W16 -> 2
    in
    t.regs.(r) <- (a + inc) land 0xFFFF;
    a
  | Opcode.S_immediate n -> tag_imm lor (n land 0xFFFF)

let resolve_dst t ~ext_addr = function
  | Opcode.D_reg r -> tag_reg lor r
  | Opcode.D_indexed (r, x) ->
    let base = if r = Registers.pc then ext_addr else t.regs.(r) in
    (base + x) land 0xFFFF
  | Opcode.D_absolute a -> a land 0xFFFF

(* ------------------------------------------------------------------ *)
(* ALU.  A flag-setting result is packed with the SR bits it sets:     *)
(* the width-masked value in bits 0-15, C/Z/N/V (at their SR           *)
(* positions) from bit 16.  The caller writes the value back first and *)
(* then the flags, so a faulting store leaves SR untouched and a       *)
(* result written to SR itself gets its flags applied on top.          *)

let flag_bits =
  Registers.bit_c lor Registers.bit_z lor Registers.bit_n lor Registers.bit_v

let carry_in t = t.regs.(Registers.sr) land Registers.bit_c

(* [cv] carries the C and V bits; Z and N follow from the value. *)
let result width v cv =
  let f = if v = 0 then cv lor Registers.bit_z else cv in
  let f = if v land sign width <> 0 then f lor Registers.bit_n else f in
  v lor (f lsl 16)

let set_flags t r =
  let sr = t.regs.(Registers.sr) in
  t.regs.(Registers.sr) <- sr land lnot flag_bits lor (r lsr 16)

let value_of r = r land 0xFFFF

(* [a + b + cin]: carry out of the width, signed overflow when both
   operands share a sign the result lacks.  SUB is [dst + ~src + 1]
   (C is the NOT-borrow), SUBC the same with the carry for the 1. *)
let add width a b cin =
  let m = mask width in
  let raw = a + b + cin in
  let v = raw land m in
  result width v
    ((if raw > m then Registers.bit_c else 0)
    lor
    if (a lxor v) land (b lxor v) land sign width <> 0 then Registers.bit_v
    else 0)

(* Decimal (BCD) addition, digit by digit, as DADD. *)
let dadd width a b cin =
  let acc = ref 0 and carry = ref cin in
  for i = 0 to (match width with Word.W8 -> 1 | Word.W16 -> 3) do
    let sh = 4 * i in
    let s = ((a lsr sh) land 0xF) + ((b lsr sh) land 0xF) + !carry in
    if s > 9 then begin
      acc := !acc lor ((s - 10) lsl sh);
      carry := 1
    end
    else begin
      acc := !acc lor (s lsl sh);
      carry := 0
    end
  done;
  result width (!acc land mask width) (if !carry = 1 then Registers.bit_c else 0)

(* AND/BIT/XOR: C is "result non-zero"; [v] is the overflow bit. *)
let logic width v ovf =
  result width v ((if v <> 0 then Registers.bit_c else 0) lor ovf)

(* SP always moves down a full word, even for PUSH.B; the store itself
   is [width]-sized, leaving the high byte of the slot untouched. *)
let push t width v =
  let sp = t.regs.(Registers.sp) - 2 in
  t.regs.(Registers.sp) <- sp land 0xFFFF;
  t.bus.write width sp v

let cond_true (regs : Registers.t) c =
  let sr = regs.(Registers.sr) in
  let n = sr land Registers.bit_n <> 0 and v = sr land Registers.bit_v <> 0 in
  match c with
  | Opcode.JNE -> sr land Registers.bit_z = 0
  | Opcode.JEQ -> sr land Registers.bit_z <> 0
  | Opcode.JNC -> sr land Registers.bit_c = 0
  | Opcode.JC -> sr land Registers.bit_c <> 0
  | Opcode.JN -> n
  | Opcode.JGE -> n = v
  | Opcode.JL -> n <> v
  | Opcode.JMP -> true

let exec_fmt1 t op width src dst ~src_ext_addr ~dst_ext_addr =
  let s = read_op t width (resolve_src t width ~ext_addr:src_ext_addr src) in
  let d = resolve_dst t ~ext_addr:dst_ext_addr dst in
  match op with
  | Opcode.MOV -> write_op t width s d
  | Opcode.BIC -> write_op t width (read_op t width d land lnot s) d
  | Opcode.BIS -> write_op t width (read_op t width d lor s) d
  | Opcode.ADD | Opcode.ADDC | Opcode.SUBC | Opcode.SUB | Opcode.CMP
  | Opcode.DADD | Opcode.BIT | Opcode.XOR | Opcode.AND ->
    let dv = read_op t width d in
    let cin = carry_in t in
    let r =
      match op with
      | Opcode.ADD -> add width dv s 0
      | Opcode.ADDC -> add width dv s cin
      | Opcode.SUB | Opcode.CMP -> add width dv (lnot s land mask width) 1
      | Opcode.SUBC -> add width dv (lnot s land mask width) cin
      | Opcode.DADD -> dadd width dv s cin
      | Opcode.XOR ->
        logic width (s lxor dv)
          (if s land dv land sign width <> 0 then Registers.bit_v else 0)
      | _ (* BIT, AND *) -> logic width (s land dv) 0
    in
    (match op with
    | Opcode.CMP | Opcode.BIT -> ()
    | _ -> write_op t width (value_of r) d);
    set_flags t r

let exec_fmt2 t op width src ~src_ext_addr =
  let p = resolve_src t width ~ext_addr:src_ext_addr src in
  match op with
  | Opcode.RRC | Opcode.RRA ->
    let v = read_op t width p in
    let top =
      match op with
      | Opcode.RRC -> if carry_in t <> 0 then sign width else 0
      | _ -> v land sign width
    in
    let r = result width ((v lsr 1) lor top) (v land Registers.bit_c) in
    write_op t width (value_of r) p;
    set_flags t r
  | Opcode.SWPB ->
    write_op t Word.W16 (Word.swap_bytes (read_op t Word.W16 p)) p
  | Opcode.SXT ->
    let v = Word.sign_extend_byte (read_op t Word.W16 p) in
    let r = result Word.W16 v (if v <> 0 then Registers.bit_c else 0) in
    write_op t Word.W16 v p;
    set_flags t r
  | Opcode.PUSH -> push t width (read_op t width p)
  | Opcode.CALL ->
    let target = read_op t Word.W16 p in
    push t Word.W16 t.regs.(Registers.pc);
    t.regs.(Registers.pc) <- target

let exec_reti t =
  let sp = t.regs.(Registers.sp) in
  let sr = t.bus.read Word.W16 sp in
  let pc = t.bus.read Word.W16 (sp + 2) in
  t.regs.(Registers.sp) <- (sp + 4) land 0xFFFF;
  t.regs.(Registers.sr) <- sr;
  t.regs.(Registers.pc) <- pc
