module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word

type expr = Num of int | Sym of string | Off of string * int | Border of string

type src =
  | Sreg of int
  | Sidx of int * expr
  | Sabs of expr
  | Sind of int
  | Sinc of int
  | Simm of expr

type dst = Dreg of int | Didx of int * expr | Dabs of expr

type insn =
  | I1 of O.op2 * W.width * src * dst
  | I2 of O.op1 * W.width * src
  | Ijmp of O.cond * string
  | Ireti

type item =
  | Ins of insn
  | Label of string
  | Dword of expr
  | Dbytes of string
  | Space of int
  | Align2
  | Comment of string

let r_pc = 0
let r_sp = 1
let r_sr = 2
let r_ret = 12
let r_arg2 = 13
let r_arg3 = 14
let r_arg4 = 15
let r_fp = 4

let mov s d = Ins (I1 (O.MOV, W.W16, s, d))
let movb s d = Ins (I1 (O.MOV, W.W8, s, d))
let add s d = Ins (I1 (O.ADD, W.W16, s, d))
let sub s d = Ins (I1 (O.SUB, W.W16, s, d))
let cmp s d = Ins (I1 (O.CMP, W.W16, s, d))
let and_ s d = Ins (I1 (O.AND, W.W16, s, d))
let bis s d = Ins (I1 (O.BIS, W.W16, s, d))
let bic s d = Ins (I1 (O.BIC, W.W16, s, d))
let xor s d = Ins (I1 (O.XOR, W.W16, s, d))
let bit s d = Ins (I1 (O.BIT, W.W16, s, d))
let push s = Ins (I2 (O.PUSH, W.W16, s))
let call f = Ins (I2 (O.CALL, W.W16, Simm (Sym f)))
let call_reg r = Ins (I2 (O.CALL, W.W16, Sreg r))
let jmp l = Ins (Ijmp (O.JMP, l))
let jcc c l = Ins (Ijmp (c, l))
let ret = Ins (I1 (O.MOV, W.W16, Sinc r_sp, Dreg r_pc))
let pop r = Ins (I1 (O.MOV, W.W16, Sinc r_sp, Dreg r))
let br e = Ins (I1 (O.MOV, W.W16, Simm e, Dreg r_pc))
let clr d = Ins (I1 (O.MOV, W.W16, Simm (Num 0), d))
let inc d = Ins (I1 (O.ADD, W.W16, Simm (Num 1), d))
let dec d = Ins (I1 (O.SUB, W.W16, Simm (Num 1), d))
let tst d = Ins (I1 (O.CMP, W.W16, Simm (Num 0), d))
let nop = Ins (I1 (O.MOV, W.W16, Simm (Num 0), Dreg 3)) (* 0x4303 *)
let imm n = Simm (Num n)
let sym s = Simm (Sym s)
let label l = Label l

let pp_expr ppf = function
  | Num n -> Format.fprintf ppf "%d" n
  | Sym s -> Format.fprintf ppf "%s" s
  | Off (s, n) -> Format.fprintf ppf "%s%+d" s n
  | Border s -> Format.fprintf ppf "border(%s)" s

let pp_src ppf = function
  | Sreg r -> Format.fprintf ppf "R%d" r
  | Sidx (r, e) -> Format.fprintf ppf "%a(R%d)" pp_expr e r
  | Sabs e -> Format.fprintf ppf "&%a" pp_expr e
  | Sind r -> Format.fprintf ppf "@R%d" r
  | Sinc r -> Format.fprintf ppf "@R%d+" r
  | Simm e -> Format.fprintf ppf "#%a" pp_expr e

let pp_dst ppf = function
  | Dreg r -> Format.fprintf ppf "R%d" r
  | Didx (r, e) -> Format.fprintf ppf "%a(R%d)" pp_expr e r
  | Dabs e -> Format.fprintf ppf "&%a" pp_expr e

let suffix = function W.W8 -> ".B" | W.W16 -> ""

let pp_insn ppf = function
  | I1 (op, w, s, d) ->
    Format.fprintf ppf "%s%s %a, %a" (O.op2_name op) (suffix w) pp_src s
      pp_dst d
  | I2 (op, w, s) ->
    Format.fprintf ppf "%s%s %a" (O.op1_name op) (suffix w) pp_src s
  | Ijmp (c, l) -> Format.fprintf ppf "%s %s" (O.cond_name c) l
  | Ireti -> Format.fprintf ppf "RETI"

let pp_item ppf = function
  | Ins i -> Format.fprintf ppf "        %a" pp_insn i
  | Label l -> Format.fprintf ppf "%s:" l
  | Dword e -> Format.fprintf ppf "        .word %a" pp_expr e
  | Dbytes s -> Format.fprintf ppf "        .bytes (%d)" (String.length s)
  | Space n -> Format.fprintf ppf "        .space %d" n
  | Align2 -> Format.fprintf ppf "        .align 2"
  | Comment c -> Format.fprintf ppf "; %s" c
