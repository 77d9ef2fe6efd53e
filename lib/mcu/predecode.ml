(* Predecoded micro-ops and basic blocks.

   A micro-op is one instruction decoded once: operand forms resolved
   by [Decode], extension-word addresses and cycle cost precomputed,
   so executing it is a direct dispatch into [Cpu]'s executors with no
   fetch, no decode and no allocation.  A block chains micro-ops from
   an entry pc up to the next control transfer (or a cap).

   The builder is pure over a raw word reader: it performs no MPU
   checks and touches no statistics — permission validation and
   fetch-word accounting happen at execution time in [Machine], where
   the slow path's ordering rules (check word k before counting it,
   fault before PC moves) are reproduced exactly. *)

type uop = {
  u_pc : int;
  u_len : int; (* bytes, 2..6 *)
  u_words : int; (* u_len / 2, the fetch-word count *)
  u_cost : int; (* Cycles.cycles, precomputed *)
  u_instr : Opcode.t;
  u_src_ext : int; (* pc+2: where fetch found the src extension word *)
  u_dst_ext : int; (* pc+2(+2): likewise for the dst extension word *)
  u_target : int; (* jump target (masked); 0 for non-jumps *)
}

type tail =
  | T_fallthrough of int
      (** the cap stopped the block; execution continues at this pc *)
  | T_control  (** ended on an instruction that (may) rewrite PC *)
  | T_unhandled of int
      (** the next pc is not predecodable (MMIO fetch, illegal word,
          address-space wrap mid-instruction); single-step it *)

type block = {
  b_pc : int;
  b_uops : uop array;
  b_lo : int; (* decoded byte span [b_lo, b_hi): the invalidation key *)
  b_hi : int;
  b_tail : tail;
  mutable b_mpu_key : int;
      (* Mpu key under which every word passes the Exec check;
         -1 until first validated *)
}

let max_uops = 64

exception Unfetchable

(* Instruction words come from backing RAM only; a pc in the
   peripheral or unmapped ranges reads MMIO (or faults) through the
   bus, which the builder cannot reproduce — leave those to the
   per-instruction path. *)
let fetchable a =
  match Memory_map.region_of_addr (a land 0xFFFF) with
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    true
  | Memory_map.Peripherals | Memory_map.Unmapped -> false

(* Conservative "may rewrite PC": these end a block.  CMP/BIT to R0
   only set flags, and PUSH only reads its source, so they chain. *)
let ends_block = function
  | Opcode.Jump _ | Opcode.Reti -> true
  | Opcode.Fmt2 (op, _, src) -> (
    match op with
    | Opcode.CALL -> true
    | Opcode.PUSH -> false
    | Opcode.RRC | Opcode.SWPB | Opcode.RRA | Opcode.SXT ->
      src = Opcode.S_reg Registers.pc)
  | Opcode.Fmt1 (op, _, _, Opcode.D_reg 0) -> Opcode.writes_back op
  | Opcode.Fmt1 _ -> false

let build ~read_word ~pc:start =
  let fetch a =
    if fetchable a then read_word (a land 0xFFFF) else raise Unfetchable
  in
  let rev_uops = ref [] in
  let count = ref 0 in
  let rec go pc =
    if !count >= max_uops then T_fallthrough (pc land 0xFFFF)
    else
      match Decode.decode ~fetch ~addr:pc with
      | exception (Unfetchable | Decode.Illegal _) ->
        T_unhandled (pc land 0xFFFF)
      | instr, len ->
        let u =
          {
            u_pc = pc;
            u_len = len;
            u_words = len / 2;
            u_cost = Cycles.cycles instr;
            u_instr = instr;
            u_src_ext = pc + 2;
            u_dst_ext =
              (pc + 2
              +
              match instr with
              | Opcode.Fmt1 (_, width, src, _) ->
                if Encode.src_needs_ext width src then 2 else 0
              | _ -> 0);
            u_target =
              (match instr with
              | Opcode.Jump (_, off) -> (pc + 2 + (2 * off)) land 0xFFFF
              | _ -> 0);
          }
        in
        rev_uops := u :: !rev_uops;
        incr count;
        if ends_block instr then T_control
        else if pc + len >= Memory_map.address_space then
          (* Fall-through wraps the address space; the next entry pc is
             re-dispatched (it lands in MMIO space anyway). *)
          T_fallthrough ((pc + len) land 0xFFFF)
        else go (pc + len)
  in
  let tail = go start in
  let uops = Array.of_list (List.rev !rev_uops) in
  let hi =
    if Array.length uops = 0 then start + 2
    else
      let last = uops.(Array.length uops - 1) in
      last.u_pc + last.u_len
  in
  (* Even an empty block spans its first word, so a write that makes
     the bytes decodable flushes the cached "unhandled" verdict. *)
  { b_pc = start; b_uops = uops; b_lo = start; b_hi = hi; b_tail = tail;
    b_mpu_key = -1 }
