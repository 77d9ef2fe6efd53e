open Opcode

exception Illegal of int

let op2_of_code = function
  | 0x4 -> MOV | 0x5 -> ADD | 0x6 -> ADDC | 0x7 -> SUBC | 0x8 -> SUB
  | 0x9 -> CMP | 0xA -> DADD | 0xB -> BIT | 0xC -> BIC | 0xD -> BIS
  | 0xE -> XOR | 0xF -> AND
  | c -> raise (Illegal c)

let op1_of_code = function
  | 0 -> RRC | 1 -> SWPB | 2 -> RRA | 3 -> SXT | 4 -> PUSH | 5 -> CALL
  | c -> raise (Illegal c)

let cond_of_code = function
  | 0 -> JNE | 1 -> JEQ | 2 -> JNC | 3 -> JC | 4 -> JN | 5 -> JGE
  | 6 -> JL | _ -> JMP

let signed16 w = if w land 0x8000 <> 0 then w - 0x10000 else w

(* Decode the source field.  Returns the operand and whether an
   extension word was consumed. *)
let decode_src width ~reg ~abits ~ext =
  match (reg, abits) with
  | 3, 0 -> (S_immediate 0, false)
  | 3, 1 -> (S_immediate 1, false)
  | 3, 2 -> (S_immediate 2, false)
  | 3, 3 -> (S_immediate (Word.mask width), false)
  | 2, 2 -> (S_immediate 4, false)
  | 2, 3 -> (S_immediate 8, false)
  | 2, 1 -> (S_absolute (ext ()), true)
  | 0, 3 -> (S_immediate (ext ()), true)
  | r, 0 -> (S_reg r, false)
  | r, 1 -> (S_indexed (r, signed16 (ext ())), true)
  | r, 2 -> (S_indirect r, false)
  | r, _ -> (S_indirect_inc r, false)

let decode_dst ~reg ~adbit ~ext =
  match (reg, adbit) with
  | r, 0 -> (D_reg r, false)
  | 2, _ -> (D_absolute (ext ()), true)
  | r, _ -> (D_indexed (r, signed16 (ext ())), true)

(* The source field names an immediate: a constant generator or @PC+. *)
let src_is_immediate ~reg ~abits =
  reg = 3 || (reg = 2 && abits >= 2) || (reg = 0 && abits = 3)

let decode ~fetch ~addr =
  let word0 = fetch addr in
  let next = ref (addr + 2) in
  let ext () =
    let w = fetch !next in
    next := !next + 2;
    w
  in
  (* The forms [Encode] refuses are rejected from the first word, before
     any extension word is fetched. *)
  let instr =
    if word0 land 0xE000 = 0x2000 then
      (* Format III: jump *)
      let cond = cond_of_code ((word0 lsr 10) land 0x7) in
      let off = word0 land 0x3FF in
      let off = if off land 0x200 <> 0 then off - 0x400 else off in
      Jump (cond, off)
    else if word0 land 0xFC00 = 0x1000 then
      (* Format II: single operand *)
      if word0 land 0xFFC0 = 0x1300 then Reti
      else
        let op = op1_of_code ((word0 lsr 7) land 0x7) in
        let width = if word0 land 0x40 <> 0 then Word.W8 else Word.W16 in
        let reg = word0 land 0xF and abits = (word0 lsr 4) land 0x3 in
        (match (op, width) with
        | (SWPB | SXT | CALL), Word.W8 -> raise (Illegal word0)
        | (RRC | RRA | SWPB | SXT), _ when src_is_immediate ~reg ~abits ->
          (* read-modify-write with nowhere to write *)
          raise (Illegal word0)
        | _ -> ());
        let src, _ = decode_src width ~reg ~abits ~ext in
        Fmt2 (op, width, src)
    else if word0 lsr 12 >= 0x4 then
      (* Format I: two operands *)
      let op = op2_of_code (word0 lsr 12) in
      let width = if word0 land 0x40 <> 0 then Word.W8 else Word.W16 in
      let sreg = (word0 lsr 8) land 0xF in
      let abits = (word0 lsr 4) land 0x3 in
      let dreg = word0 land 0xF in
      let adbit = (word0 lsr 7) land 0x1 in
      (* x(R3) destination: R3 is the constant generator *)
      if dreg = 3 && adbit = 1 then raise (Illegal word0);
      let src, _ = decode_src width ~reg:sreg ~abits ~ext in
      let dst, _ = decode_dst ~reg:dreg ~adbit ~ext in
      Fmt1 (op, width, src, dst)
    else raise (Illegal word0)
  in
  (instr, !next - addr)

let decode_words words =
  let arr = Array.of_list words in
  let fetch a = arr.(a / 2) in
  decode ~fetch ~addr:0
