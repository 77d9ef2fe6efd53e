type reg = int

type src =
  | S_reg of reg
  | S_indexed of reg * int
  | S_absolute of int
  | S_indirect of reg
  | S_indirect_inc of reg
  | S_immediate of int

type dst = D_reg of reg | D_indexed of reg * int | D_absolute of int

type op2 =
  | MOV | ADD | ADDC | SUBC | SUB | CMP | DADD | BIT | BIC | BIS | XOR | AND

type op1 = RRC | SWPB | RRA | SXT | PUSH | CALL
type cond = JNE | JEQ | JNC | JC | JN | JGE | JL | JMP

type t =
  | Fmt1 of op2 * Word.width * src * dst
  | Fmt2 of op1 * Word.width * src
  | Jump of cond * int
  | Reti

let op2_name = function
  | MOV -> "MOV" | ADD -> "ADD" | ADDC -> "ADDC" | SUBC -> "SUBC"
  | SUB -> "SUB" | CMP -> "CMP" | DADD -> "DADD" | BIT -> "BIT"
  | BIC -> "BIC" | BIS -> "BIS" | XOR -> "XOR" | AND -> "AND"

let op1_name = function
  | RRC -> "RRC" | SWPB -> "SWPB" | RRA -> "RRA" | SXT -> "SXT"
  | PUSH -> "PUSH" | CALL -> "CALL"

let cond_name = function
  | JNE -> "JNE" | JEQ -> "JEQ" | JNC -> "JNC" | JC -> "JC"
  | JN -> "JN" | JGE -> "JGE" | JL -> "JL" | JMP -> "JMP"

let writes_back = function CMP | BIT -> false | _ -> true
let sets_flags = function MOV | BIC | BIS -> false | _ -> true

let bit r = 1 lsl r
let pc_bit = bit Registers.pc
let sp_bit = bit Registers.sp
let sr_bit = bit Registers.sr
let reg_operand = function S_reg r -> bit r | _ -> 0
let autoinc = function S_indirect_inc r -> bit r | _ -> 0

let writes = function
  | Fmt1 (op, _, s, d) ->
    autoinc s
    lor (match d with D_reg r when writes_back op -> bit r | _ -> 0)
    lor if sets_flags op then sr_bit else 0
  | Fmt2 (op, _, s) -> (
    autoinc s
    lor
    match op with
    | RRC | RRA | SXT -> reg_operand s lor sr_bit
    | SWPB -> reg_operand s
    | PUSH -> sp_bit
    | CALL -> sp_bit lor pc_bit)
  | Jump _ -> pc_bit
  | Reti -> sp_bit lor sr_bit lor pc_bit

let writes_reg op r = writes op land bit r <> 0

let writes_memory = function
  | Fmt1 (op, _, _, (D_indexed _ | D_absolute _)) -> writes_back op
  | Fmt2 ((RRC | SWPB | RRA | SXT), _, (S_reg _ | S_immediate _)) -> false
  | Fmt2 _ -> true
  | Fmt1 _ | Jump _ | Reti -> false

let is_ret = function
  | Fmt1 (MOV, Word.W16, S_indirect_inc 1, D_reg 0) -> true
  | _ -> false

let br_target = function
  | Fmt1 (MOV, Word.W16, S_immediate k, D_reg 0) -> Some (k land 0xFFFF)
  | _ -> None

let jump_target op ~pc =
  match op with
  | Jump (_, off) -> Some ((pc + 2 + (2 * off)) land 0xFFFF)
  | _ -> None

let pp_src ppf = function
  | S_reg r -> Format.fprintf ppf "R%d" r
  | S_indexed (r, x) -> Format.fprintf ppf "%d(R%d)" x r
  | S_absolute a -> Format.fprintf ppf "&0x%04X" a
  | S_indirect r -> Format.fprintf ppf "@R%d" r
  | S_indirect_inc r -> Format.fprintf ppf "@R%d+" r
  | S_immediate n -> Format.fprintf ppf "#%d" n

let pp_dst ppf = function
  | D_reg r -> Format.fprintf ppf "R%d" r
  | D_indexed (r, x) -> Format.fprintf ppf "%d(R%d)" x r
  | D_absolute a -> Format.fprintf ppf "&0x%04X" a

let suffix = function Word.W8 -> ".B" | Word.W16 -> ""

let pp ppf = function
  | Fmt1 (op, w, s, d) ->
    Format.fprintf ppf "%s%s %a, %a" (op2_name op) (suffix w) pp_src s pp_dst d
  | Fmt2 (op, w, s) ->
    Format.fprintf ppf "%s%s %a" (op1_name op) (suffix w) pp_src s
  | Jump (c, off) -> Format.fprintf ppf "%s %+d" (cond_name c) off
  | Reti -> Format.fprintf ppf "RETI"

let to_string i = Format.asprintf "%a" pp i
