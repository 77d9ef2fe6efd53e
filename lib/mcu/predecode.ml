(* Predecoded micro-ops and basic blocks.

   A micro-op is one instruction decoded once: operand forms resolved
   by [Decode], extension-word addresses and cycle cost precomputed,
   so executing it is a direct dispatch into [Cpu]'s executors with no
   fetch, no decode and no allocation.  A block chains micro-ops from
   an entry pc up to the next control transfer (or a cap).

   The builder is pure over a raw word reader: it performs no MPU
   checks and touches no statistics — permission validation and
   fetch-word accounting happen at execution time in [Machine], in
   fetch order (check word k before counting it, fault before PC
   moves). *)

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

type block = {
  b_uops : uop array;
  b_lo : int; (* decoded byte span [b_lo, b_hi): the invalidation key *)
  b_hi : int;
  mutable b_mpu_key : int;
      (* Mpu key under which every word passes the Exec check;
         -1 until first validated *)
}

let max_uops = 64

let decode ~fetch ~pc =
  let instr, len = Decode.decode ~fetch ~addr:pc in
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

exception Unfetchable

(* Instruction words come from backing RAM only; a pc in the
   peripheral or unmapped ranges reads MMIO (or faults) through the
   bus, which the builder cannot reproduce — the machine decodes those
   through its checked fetch. *)
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
  (* Uops from [pc], latest first.  The block stops after a control
     transfer, at the cap, where fall-through would wrap the address
     space, and before anything undecodable. *)
  let rec go pc n acc =
    if n = max_uops then acc
    else
      match decode ~fetch ~pc with
      | exception (Unfetchable | Decode.Illegal _) -> acc
      | u ->
        let next = pc + u.u_len in
        if ends_block u.u_instr || next >= Memory_map.address_space then
          u :: acc
        else go next (n + 1) (u :: acc)
  in
  let uops = Array.of_list (List.rev (go start 0 [])) in
  let hi =
    match uops with
    | [||] -> start + 2
    | _ ->
      let last = uops.(Array.length uops - 1) in
      last.u_pc + last.u_len
  in
  (* Even an empty block spans its first word, so a write that makes
     the bytes decodable flushes the cached empty block. *)
  { b_uops = uops; b_lo = start; b_hi = hi; b_mpu_key = -1 }
