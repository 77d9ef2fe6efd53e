module A = Amulet_link.Asm
module O = Amulet_mcu.Opcode
module M = Amulet_mcu.Machine

let l = A.label
let rra r = A.Ins (A.I2 (O.RRA, Amulet_mcu.Word.W16, A.Sreg r))
let rrc r = A.Ins (A.I2 (O.RRC, Amulet_mcu.Word.W16, A.Sreg r))
let clrc = A.bic (A.imm 1) (A.Dreg A.r_sr)

let neg r = [ A.xor (A.imm 0xFFFF) (A.Dreg r); A.inc (A.Dreg r) ]

(* 16x16 -> low 16 multiply: R12 * R13 -> R12. *)
let mulhi =
  [
    l "__mulhi";
    A.mov (A.Sreg 12) (A.Dreg 14);
    A.clr (A.Dreg 12);
    l "mul$loop";
    A.bit (A.imm 1) (A.Dreg 13);
    A.jcc O.JEQ "mul$skip";
    A.add (A.Sreg 14) (A.Dreg 12);
    l "mul$skip";
    A.add (A.Sreg 14) (A.Dreg 14);
    clrc;
    rrc 13;
    A.tst (A.Dreg 13);
    A.jcc O.JNE "mul$loop";
    A.ret;
  ]

(* Unsigned division core: R12 / R13 -> quotient R12, remainder R14. *)
let udivmod =
  [
    l "__udivhi";
    l "__udivmod";
    A.clr (A.Dreg 14);
    A.mov (A.imm 16) (A.Dreg 15);
    l "udm$loop";
    A.add (A.Sreg 12) (A.Dreg 12);
    A.Ins (A.I1 (O.ADDC, Amulet_mcu.Word.W16, A.Sreg 14, A.Dreg 14));
    A.jcc O.JC "udm$sub";
    A.cmp (A.Sreg 13) (A.Dreg 14);
    A.jcc O.JNC "udm$skip";
    l "udm$sub";
    A.sub (A.Sreg 13) (A.Dreg 14);
    A.bis (A.imm 1) (A.Dreg 12);
    l "udm$skip";
    A.dec (A.Dreg 15);
    A.jcc O.JNE "udm$loop";
    A.ret;
  ]

let umodhi =
  [ l "__umodhi"; A.call "__udivmod"; A.mov (A.Sreg 14) (A.Dreg 12); A.ret ]

(* Signed division: quotient sign = sign(a) xor sign(b). *)
let divhi =
  [
    l "__divhi";
    A.mov (A.Sreg 12) (A.Dreg 14);
    A.xor (A.Sreg 13) (A.Dreg 14);
    A.push (A.Sreg 14);
    A.tst (A.Dreg 12);
    A.jcc O.JGE "div$a";
  ]
  @ neg 12
  @ [ l "div$a"; A.tst (A.Dreg 13); A.jcc O.JGE "div$b" ]
  @ neg 13
  @ [
      l "div$b";
      A.call "__udivmod";
      A.pop 14;
      A.tst (A.Dreg 14);
      A.jcc O.JGE "div$done";
    ]
  @ neg 12
  @ [ l "div$done"; A.ret ]

(* Signed modulo: remainder takes the dividend's sign. *)
let modhi =
  [
    l "__modhi";
    A.push (A.Sreg 12);
    A.tst (A.Dreg 12);
    A.jcc O.JGE "mod$a";
  ]
  @ neg 12
  @ [ l "mod$a"; A.tst (A.Dreg 13); A.jcc O.JGE "mod$b" ]
  @ neg 13
  @ [
      l "mod$b";
      A.call "__udivmod";
      A.mov (A.Sreg 14) (A.Dreg 12);
      A.pop 14;
      A.tst (A.Dreg 14);
      A.jcc O.JGE "mod$done";
    ]
  @ neg 12
  @ [ l "mod$done"; A.ret ]

(* Dynamic shifts: value R12, count R13 (masked to 0..15). *)
let shifts =
  [
    l "__shlhi";
    A.and_ (A.imm 15) (A.Dreg 13);
    l "shl$loop";
    A.tst (A.Dreg 13);
    A.jcc O.JEQ "shl$done";
    A.add (A.Sreg 12) (A.Dreg 12);
    A.dec (A.Dreg 13);
    A.jmp "shl$loop";
    l "shl$done";
    A.ret;
    l "__shrhi";
    A.and_ (A.imm 15) (A.Dreg 13);
    l "shr$loop";
    A.tst (A.Dreg 13);
    A.jcc O.JEQ "shr$done";
    clrc;
    rrc 12;
    A.dec (A.Dreg 13);
    A.jmp "shr$loop";
    l "shr$done";
    A.ret;
    l "__sarhi";
    A.and_ (A.imm 15) (A.Dreg 13);
    l "sar$loop";
    A.tst (A.Dreg 13);
    A.jcc O.JEQ "sar$done";
    rra 12;
    A.dec (A.Dreg 13);
    A.jmp "sar$loop";
    l "sar$done";
    A.ret;
  ]

(* Feature-Limited array-index check: index R14, limit R15; faults on
   index >= limit (negative indexes wrap to large unsigned values). *)
let bounds_check =
  [
    l "__bounds_check";
    A.cmp (A.Sreg 15) (A.Dreg 14);
    A.jcc O.JC "bc$fail";
    A.ret;
    l "bc$fail";
    A.mov (A.imm Isolation.fault_array_bounds) (A.Dabs (A.Num M.sw_fault_port));
    A.jmp "bc$fail";
  ]

(* Zero-size marker symbols bracketing the helper ranges, so profilers
   can attribute helper cycles: the arithmetic helpers count as app
   work, [__bounds_check] as guard work. *)
let rt_begin = "__rt$b"
let rt_end = "__rt$e"
let bc_begin = "__bc$b"
let bc_end = "__bc$e"

let items =
  (l rt_begin :: (mulhi @ udivmod @ umodhi @ divhi @ modhi @ shifts))
  @ (l bc_begin :: bounds_check)
  @ [ l bc_end; l rt_end ]

(* Stack bytes each helper call occupies below the caller's SP: its
   return address, plus [__udivmod]'s for the helpers that call it and
   the word [__divhi]/[__modhi] save around that call. *)
let helpers =
  [
    ("__mulhi", 2); ("__udivhi", 2); ("__udivmod", 2); ("__umodhi", 4);
    ("__divhi", 6); ("__modhi", 6); ("__shlhi", 2); ("__shrhi", 2);
    ("__sarhi", 2); ("__bounds_check", 2);
  ]

(* Iteration bounds of the helper loops, keyed by the loop's header
   label (the back-edge target).  A bound B means the loop body runs
   at most B times per entry; the WCET analysis charges (B+1) header
   executions to cover while-style exit tests.  [bc$fail] needs no
   bound: its first instruction writes the software-fault port, which
   stops the machine, so the spin never executes a second time.

   - mul$loop shifts the multiplier right once per iteration, so it
     exits after at most 16 iterations;
   - udm$loop counts R15 down from exactly 16;
   - the shift loops mask their count with [and #15] first. *)
let loop_bounds =
  [
    ("mul$loop", 16);
    ("udm$loop", 16);
    ("shl$loop", 15);
    ("shr$loop", 15);
    ("sar$loop", 15);
  ]

let builtin_externals =
  [
    ("__halt", Ctype.Func (Ctype.Void, []));
    ("__putc", Ctype.Func (Ctype.Void, [ Ctype.Int ]));
    ("__timer_start", Ctype.Func (Ctype.Void, []));
    ("__timer_read", Ctype.Func (Ctype.Uint, []));
  ]
