(* Predecoded micro-ops and basic blocks.

   A micro-op is one instruction decoded once: operand forms resolved
   by [Decode], extension-word addresses and cycle cost precomputed,
   so [Machine] can build an executor specialised on it once and run
   it with no fetch, no decode and no allocation.  A block chains
   micro-ops from an entry pc up to the next control transfer (or a
   cap).

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
  u_stores : bool; (* Opcode.writes_memory: it may store *)
  u_run : int; (* at a stack run's first uop, the run's length; else 0 *)
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
    u_target = Option.value ~default:0 (Opcode.jump_target instr ~pc);
    u_stores = Opcode.writes_memory instr;
    u_run = 0;
  }

(* A stack run is two or more consecutive uops of one kind: word
   [PUSH Rn], or word [MOV @SP+, Rn], each with n >= 4 (no PC, SP, SR
   or constant generator).  Their only effects are on SP, the named
   registers and the stack bytes, so the machine can run the whole run
   as one step. *)
let stack_move u =
  match u.u_instr with
  | Opcode.Fmt2 (Opcode.PUSH, Word.W16, Opcode.S_reg r) when r >= 4 -> 1
  | Opcode.Fmt1
      (Opcode.MOV, Word.W16, Opcode.S_indirect_inc s, Opcode.D_reg r)
    when s = Registers.sp && r >= 4 ->
    2
  | _ -> 0

let rec run_end uops kind j =
  if j < Array.length uops && stack_move uops.(j) = kind then
    run_end uops kind (j + 1)
  else j

(* Record each run's length on its first uop; a block without a run
   is left as it is. *)
let rec mark_runs uops i =
  if i < Array.length uops then
    match stack_move uops.(i) with
    | 0 -> mark_runs uops (i + 1)
    | kind ->
      let j = run_end uops kind (i + 1) in
      if j - i >= 2 then uops.(i) <- { (uops.(i)) with u_run = j - i };
      mark_runs uops j

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

let build ~read_word ~pc:start =
  let fetch a =
    if fetchable a then read_word (a land 0xFFFF) else raise Unfetchable
  in
  (* Uops from [pc], latest first.  The block stops after anything
     that may write PC (a CMP or BIT to R0 only sets flags, so it
     chains), at the cap, where fall-through would wrap the address
     space, and before anything undecodable. *)
  let rec go pc n acc =
    if n = max_uops then acc
    else
      match decode ~fetch ~pc with
      | exception (Unfetchable | Decode.Illegal _) -> acc
      | u ->
        let next = pc + u.u_len in
        if
          Opcode.writes_reg u.u_instr Registers.pc
          || next >= Memory_map.address_space
        then
          u :: acc
        else go next (n + 1) (u :: acc)
  in
  let uops = Array.of_list (List.rev (go start 0 [])) in
  mark_runs uops 0;
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
