(* Independent SFI verifier: abstract interpretation of a linked app
   code section over unsigned 16-bit intervals.  See verifier.mli for
   the policy and DESIGN.md for the soundness/TCB discussion.

   The verifier shares no code with the compiler's check insertion: it
   reuses only the instruction decoder, the instructions' effect
   definitions ({!Amulet_mcu.Opcode.writes} and friends) and the
   section's link-map facts ({!Section}: the linker's symbol table, the
   section-naming convention and the service table's list of callable
   externals), none of which contains check-insertion code.  So a bug
   in codegen or in the range analysis cannot silently produce an
   accepted-but-unsafe image.  It keeps its own interval explorer
   rather than running over CFI's blocks, so SFI and CFI stay two
   independent proofs. *)

module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module M = Amulet_mcu.Machine
module T = Amulet_mcu.Timer
module D = Amulet_mcu.Decode
module R = Amulet_mcu.Registers
module S = Section
module Iso = Amulet_cc.Isolation

type violation = { vaddr : int; vtext : string; vreason : string }

type stats = {
  v_insns : int;
  v_blocks : int;
  v_stores : int;
  v_loads : int;
  v_branches : int;
  v_rets : int;
}

let pp_violation ppf v =
  Format.fprintf ppf "%04X: %-28s %s" v.vaddr v.vtext v.vreason

let pp_stats ppf s =
  Format.fprintf ppf
    "%d instructions in %d blocks; proved %d stores, %d loads, %d indirect \
     branches, %d returns"
    s.v_insns s.v_blocks s.v_stores s.v_loads s.v_branches s.v_rets

(* ------------------------------------------------------------------ *)
(* Abstract values *)

(* [Iv] is an unsigned interval; [Shadow] marks a register holding the
   InfoMem shadow-stack pointer (only obtainable by loading
   &shadow_sp_addr); [Frame] marks R4 holding the function's own frame
   pointer (only obtainable as MOV SP->R4 or POP R4). *)
type av = Any | Iv of int * int | Shadow | Frame

let av_join a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) -> Iv (min l1 l2, max h1 h2)
  | Shadow, Shadow -> Shadow
  | Frame, Frame -> Frame
  | _ -> if a = b then a else Any

(* Arithmetic stays in the unsigned 16-bit range; anything that could
   wrap collapses to Any (the concrete machine wraps mod 2^16, so an
   interval that stays in range is exact). *)
let av_add a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) when h1 + h2 <= 0xFFFF -> Iv (l1 + l2, h1 + h2)
  | Shadow, Iv (2, 2) | Iv (2, 2), Shadow -> Shadow
  | _ -> Any

let av_sub a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) when l1 - h2 >= 0 -> Iv (l1 - h2, h1 - l2)
  | Shadow, Iv (2, 2) -> Shadow
  | _ -> Any

let av_and a b =
  match (a, b) with
  | Iv (_, h1), Iv (_, h2) -> Iv (0, min h1 h2)
  | Iv (_, h), _ | _, Iv (_, h) -> Iv (0, h)
  | _ -> Any

(* dst AND NOT src: only clears bits *)
let av_bic dst src =
  ignore src;
  match dst with Iv (_, h) -> Iv (0, h) | _ -> Any

(* OR/XOR of values below 2^k stay below 2^k *)
let pow2_mask h =
  let m = ref 1 in
  while !m <= h do
    m := !m * 2
  done;
  !m - 1

let av_bis a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) -> Iv (max l1 l2, pow2_mask (max h1 h2))
  | _ -> Any

let av_xor a b =
  match (a, b) with
  | Iv (_, h1), Iv (_, h2) -> Iv (0, pow2_mask (max h1 h2))
  | _ -> Any

(* the low byte at byte width: a register read, or the value a
   byte-width operation writes to a register *)
let byte_clamp w v =
  match (w, v) with
  | W.W16, _ -> v
  | W.W8, Iv (l, h) when h <= 0xFF -> Iv (l, h)
  | W.W8, _ -> Iv (0, 0xFF)

(* ------------------------------------------------------------------ *)
(* Abstract machine state *)

(* [tos] abstracts the word at 0(SP) — the return-address slot the
   compiler's epilogue guard inspects; [tos_shadow] records that the
   shadow-stack comparison proved it untampered.  Both die on any
   store, SP write or call. *)
type state = { regs : av array; mutable tos : av; mutable tos_shadow : bool }

let top_state () =
  let s = { regs = Array.make 16 Any; tos = Any; tos_shadow = false } in
  s.regs.(4) <- Frame;
  (* callers (trampoline/other verified functions) maintain R4 *)
  s

let copy_state st = { st with regs = Array.copy st.regs }

let state_join a b =
  {
    regs = Array.init 16 (fun i -> av_join a.regs.(i) b.regs.(i));
    tos = av_join a.tos b.tos;
    tos_shadow = a.tos_shadow && b.tos_shadow;
  }

let state_equal a b =
  a.regs = b.regs && a.tos = b.tos && a.tos_shadow = b.tos_shadow

(* cells a CMP/Jcc pair can refine *)
type cell = Cell_reg of int | Cell_tos
type cmp_src = Cs_iv of int * int | Cs_shadow

(* ------------------------------------------------------------------ *)
(* Verification context *)

(* [heads]: the targets of the jumps and branches seen to go back (to
   their own address or below), the only addresses a widening needs:
   a trace runs forward, so every loop has one. *)
type ctx = { mode : Iso.mode; sec : S.t; heads : (int, unit) Hashtbl.t }

type recorder = {
  viols : (int * string, violation) Hashtbl.t;
  visited : (int, unit) Hashtbl.t;
  passed : (int * char, unit) Hashtbl.t;
}

let checked ctx = ctx.mode <> Iso.No_isolation

(* policy for a dynamic access whose start address is in [l, h] *)
let region_ok { mode; sec; _ } (l, h) =
  match mode with
  | Iso.No_isolation -> true
  | Iso.Mpu_assisted -> l >= sec.S.data_lo (* MPU enforces the upper bound *)
  | Iso.Software_only | Iso.Feature_limited ->
    l >= sec.S.data_lo && h < sec.S.data_hi

let code_ok { mode; sec; _ } (l, h) =
  match mode with
  | Iso.No_isolation -> true
  | Iso.Mpu_assisted -> l >= sec.S.code_lo
  | Iso.Software_only | Iso.Feature_limited ->
    l >= sec.S.code_lo && h < sec.S.code_hi

let in_code ctx a = a >= ctx.sec.S.code_lo && a < ctx.sec.S.code_hi
let in_data ctx a = a >= ctx.sec.S.data_lo && a < ctx.sec.S.data_hi

(* absolute addresses an app may always write / read *)
let abs_store_ok ctx a =
  in_data ctx a
  || List.mem a
       [
         M.halt_port; M.console_port; M.sw_fault_port; T.ctl_addr;
         T.ex0_addr; Iso.shadow_sp_addr;
       ]

let abs_load_ok ctx a =
  in_data ctx a || List.mem a [ T.counter_addr; Iso.shadow_sp_addr ]

let bounds_of = function Iv (l, h) -> (l, h) | _ -> (0, 0xFFFF)

(* ------------------------------------------------------------------ *)
(* Single-trace interpreter.

   Simulates straight-line code from [addr0] with entry state [st0]
   until a control transfer, producing the successor states: each
   edge's (with conditional-branch refinement applied) and the top
   state at each in-section call target.  With [recorder] set it also
   replays the policy checks and records violations — used for the
   final pass over the fixpoint. *)

let run ctx ?recorder st0 addr0 =
  let st = copy_state st0 in
  let last_cmp = ref None in
  let carry_clr = ref false in
  let prev1 = ref None and prev2 = ref None in
  let succs = ref [] in
  let addr = ref addr0 in
  let stop = ref false in
  let viol a insn reason =
    if checked ctx then
      match recorder with
      | None -> ()
      | Some r ->
        if not (Hashtbl.mem r.viols (a, reason)) then
          Hashtbl.replace r.viols (a, reason)
            {
              vaddr = a;
              vtext =
                (match insn with Some i -> O.to_string i | None -> "?");
              vreason = reason;
            }
  in
  let pass a kind =
    match recorder with
    | None -> ()
    | Some r -> Hashtbl.replace r.passed (a, kind) ()
  in
  let kill_tos () =
    st.tos <- Any;
    st.tos_shadow <- false;
    match !last_cmp with
    | Some (_, Cell_tos) -> last_cmp := None
    | _ -> ()
  in
  let set_reg r v =
    st.regs.(r) <- v;
    (match !last_cmp with
    | Some (_, Cell_reg r') when r' = r -> last_cmp := None
    | _ -> ());
    if r = 1 then kill_tos ()
  in
  let add_succ a insn t st' =
    if t <= a then Hashtbl.replace ctx.heads t ();
    if in_code ctx t then succs := (t, st') :: !succs
    else viol a insn "jump target outside the app code section"
  in
  (* dynamic memory access through a computed address *)
  let check_dyn a insn ~store v =
    if region_ok ctx (bounds_of v) then
      pass a (if store then 's' else 'l')
    else
      viol a insn
        (Printf.sprintf "%s address not proven inside the app data section"
           (if store then "store" else "load"))
  in
  (* an x(Rn)/@Rn operand: structurally trusted bases, else dynamic *)
  let check_indexed a insn ~store r off =
    match st.regs.(r) with
    | _ when r = 1 -> () (* SP-relative: stack discipline (TCB) *)
    | Frame -> () (* FP-relative with proven frame pointer *)
    | Shadow -> () (* shadow-stack maintenance pattern *)
    | v ->
      (* [off] is signed: Decode sign-extends x(Rn) offsets *)
      let v =
        if off = 0 then v
        else
          match v with
          | Iv (l, h) when l + off >= 0 && h + off <= 0xFFFF ->
            Iv (l + off, h + off)
          | _ -> Any
      in
      check_dyn a insn ~store v
  in
  let check_abs a insn ~store x =
    let ok = if store then abs_store_ok ctx x else abs_load_ok ctx x in
    if not ok then
      viol a insn
        (Printf.sprintf "%s to address 0x%04X outside the app data section"
           (if store then "store" else "load")
           x)
  in
  (* a source operand: its access check (a store for the single-operand
     read-modify-write forms) and the value it reads.  Reading [@Rn+]
     moves the base at once, as the machine does before it resolves the
     destination (SP always moves a whole word). *)
  let src_av a insn w ~store s =
    let loaded = if w = W.W8 then Iv (0, 0xFF) else Any in
    match s with
    | O.S_immediate k ->
      if store then viol a insn "single-operand op on an immediate";
      let k = k land 0xFFFF in
      let k = if w = W.W8 then k land 0xFF else k in
      Iv (k, k)
    | O.S_reg r -> byte_clamp w st.regs.(r)
    | O.S_indexed (r, off) ->
      check_indexed a insn ~store r off;
      loaded
    | O.S_absolute x ->
      check_abs a insn ~store x;
      if x = Iso.shadow_sp_addr && w = W.W16 then Shadow else loaded
    | O.S_indirect r ->
      check_indexed a insn ~store r 0;
      loaded
    | O.S_indirect_inc r ->
      check_indexed a insn ~store r 0;
      let step = if w = W.W8 && r <> R.sp then 1 else 2 in
      set_reg r (av_add st.regs.(r) (Iv (step, step)));
      loaded
  in
  (* The rest of an instruction's effects once [src] has been read:
     each register [O.writes] names takes [v] if it is [dst] (-1 for
     none), else [Any], except an [@Rn+] base, which keeps the value the
     read moved it to.  SP is never that exception, since PUSH and CALL
     move it again. *)
  let apply insn ~dst v src =
    let inc =
      match src with O.S_indirect_inc r when r <> R.sp -> r | _ -> -1
    in
    let written = O.writes insn in
    for r = 0 to 15 do
      if written land (1 lsl r) <> 0 && (r = dst || r <> inc) then
        set_reg r (if r = dst then v else Any)
    done;
    if O.writes_memory insn then kill_tos ()
  in
  let transfer op cur sav =
    match op with
    | O.MOV -> sav
    | O.ADD -> av_add cur sav
    | O.SUB -> av_sub cur sav
    | O.AND -> av_and cur sav
    | O.BIC -> av_bic cur sav
    | O.BIS -> av_bis cur sav
    | O.XOR -> av_xor cur sav
    | O.ADDC | O.SUBC | O.DADD -> Any
    | O.CMP | O.BIT -> cur
  in
  (* conditional-edge refinement from the live CMP *)
  let get_cell = function Cell_reg r -> st.regs.(r) | Cell_tos -> st.tos in
  let refine cond taken =
    match !last_cmp with
    | None -> Some (copy_state st)
    | Some (Cs_shadow, Cell_tos) ->
      let stc = copy_state st in
      if cond = O.JEQ && taken then stc.tos_shadow <- true;
      Some stc
    | Some (Cs_shadow, _) -> Some (copy_state st)
    | Some (Cs_iv (k1, k2), c) -> (
      match get_cell c with
      | Shadow | Frame -> Some (copy_state st)
      | v -> (
        let l, h = bounds_of v in
        let nb =
          (* CMP computes cell - src: JC taken means cell >= src *)
          match (cond, taken) with
          | O.JC, true | O.JNC, false -> Some (max l k1, h)
          | O.JC, false | O.JNC, true -> Some (l, min h (k2 - 1))
          | O.JEQ, true -> Some (max l k1, min h k2)
          | _ -> None
        in
        match nb with
        | None -> Some (copy_state st)
        | Some (l', h') ->
          if l' > h' then None (* infeasible edge *)
          else
            let stc = copy_state st in
            (match c with
            | Cell_reg r -> stc.regs.(r) <- Iv (l', h')
            | Cell_tos -> stc.tos <- Iv (l', h'));
            Some stc))
  in
  while not !stop do
    let a = !addr in
    if not (in_code ctx a) then begin
      viol a None "control runs past the end of the code section";
      stop := true
    end
    else
      match D.decode ~fetch:ctx.sec.S.fetch ~addr:a with
      | exception D.Illegal w ->
        viol a None (Printf.sprintf "undecodable word 0x%04X" w);
        stop := true
      | insn, size ->
        (match recorder with
        | Some r -> Hashtbl.replace r.visited a ()
        | None -> ());
        let ii = Some insn in
        (match insn with
        (* ---- control transfers ---- *)
        | O.Jump (cond, _) ->
          let t = Option.get (O.jump_target insn ~pc:a) in
          if cond = O.JMP then add_succ a ii t (copy_state st)
          else begin
            (match refine cond true with
            | Some st' -> add_succ a ii t st'
            | None -> ());
            match refine cond false with
            | Some st' -> add_succ a ii (a + size) st'
            | None -> ()
          end;
          stop := true
        | O.Reti ->
          viol a ii "RETI in application code";
          stop := true
        | _ when O.is_ret insn ->
          (* RET: the return address must be proven by the epilogue
             guard (or the shadow-stack comparison) in the modes whose
             compiler inserts one *)
          (if Iso.checks_lower_bound ctx.mode then
             if st.tos_shadow then pass a 'r'
             else if code_ok ctx (bounds_of st.tos) then pass a 'r'
             else
               viol a ii
                 "return address not proven inside the app code section");
          stop := true
        | _ when Option.is_some (O.br_target insn) ->
          let k = Option.get (O.br_target insn) in
          if in_code ctx k then add_succ a ii k (copy_state st)
          else if not (Hashtbl.mem ctx.sec.S.externals k) then
            viol a ii
              (Printf.sprintf
                 "branch to 0x%04X, outside the section and not a runtime \
                  entry"
                 k);
          stop := true
        (* ---- calls ---- *)
        | O.Fmt2 (O.CALL, _, s) ->
          (match s with
          | O.S_immediate k ->
            let k = k land 0xFFFF in
            if in_code ctx k then succs := (k, top_state ()) :: !succs
            else if not (Hashtbl.mem ctx.sec.S.externals k) then
              viol a ii
                (Printf.sprintf
                   "call to 0x%04X, outside the section and not a runtime \
                    entry"
                   k)
          | O.S_reg r ->
            if ctx.mode = Iso.Feature_limited then
              viol a ii "indirect call in a feature-limited image"
            else if code_ok ctx (bounds_of st.regs.(r)) then pass a 'b'
            else
              viol a ii
                "indirect call target not proven inside the app code section"
          | _ -> viol a ii "indirect call through a memory operand");
          (* refine the Feature-Limited array index certified by
             __bounds_check: MOV Ri,R14; MOV #len,R15; CALL *)
          let bc_refine =
            match (s, ctx.sec.S.bounds_check, !prev1, !prev2) with
            | ( O.S_immediate k,
                Some bc,
                Some (O.Fmt1 (O.MOV, W.W16, O.S_immediate n, O.D_reg 15)),
                Some (O.Fmt1 (O.MOV, W.W16, O.S_reg rs, O.D_reg 14)) )
              when k land 0xFFFF = bc && n > 0 ->
              Some (rs, n)
            | _ -> None
          in
          apply insn ~dst:(-1) Any s;
          (* caller-saved registers and the flags die across any call *)
          for r = 12 to 15 do
            set_reg r Any
          done;
          (match bc_refine with
          | Some (rs, n) ->
            set_reg rs (Iv (0, n - 1));
            set_reg 14 (Iv (0, n - 1))
          | None -> ());
          carry_clr := false
        | _ when O.writes_reg insn R.pc ->
          (* any other PC write: the compiler never emits computed
             branches (indirect control flow goes through CALL after a
             code-bounds check), so reject them outright *)
          viol a ii "computed branch in application code";
          stop := true
        (* ---- other single-operand: PUSH, RRC, SWPB, RRA, SXT ---- *)
        | O.Fmt2 (op1, w, s) ->
          (* the operand at its width; RRA keeps the sign bit *)
          let v = src_av a ii w ~store:(op1 <> O.PUSH) s in
          let sign = if w = W.W8 then 0x80 else 0x8000 in
          let shifted =
            match (op1, v) with
            | O.RRA, Iv (l, h) when h < sign -> Iv (l lsr 1, h lsr 1)
            | O.RRC, Iv (l, h) when !carry_clr -> Iv (l lsr 1, h lsr 1)
            | _ -> Any
          in
          let dst = match s with O.S_reg r -> r | _ -> -1 in
          apply insn ~dst (byte_clamp w shifted) s;
          carry_clr := false
        (* ---- two-operand ---- *)
        | O.Fmt1 (op, w, s, d) ->
          let sav = src_av a ii w ~store:false s in
          let dst, v =
            match d with
            | O.D_reg rd -> (
              match (op, w, s, rd) with
              (* frame-pointer discipline: only MOV SP->R4 / POP R4
                 re-establish a trusted frame pointer *)
              | O.MOV, W.W16, O.S_reg 1, 4 -> (rd, Frame)
              | O.MOV, W.W16, O.S_indirect_inc 1, 4 -> (rd, Frame)
              | _ -> (rd, byte_clamp w (transfer op st.regs.(rd) sav)))
            | O.D_indexed (rd, off) ->
              check_indexed a ii ~store:(O.writes_memory insn) rd off;
              (-1, Any)
            | O.D_absolute x ->
              check_abs a ii ~store:(O.writes_memory insn) x;
              (-1, Any)
          in
          (* comparison bookkeeping for the following Jcc: a CMP refines
             the cell it compares unless it writes that cell itself *)
          let next_cmp =
            if op = O.CMP && w = W.W16 then
              let ccell =
                match d with
                | O.D_reg r when r <> R.pc && not (O.writes_reg insn r) ->
                  Some (Cell_reg r)
                | O.D_indexed (1, 0) -> Some Cell_tos
                | _ -> None
              in
              let csrc =
                match s with
                | O.S_immediate k ->
                  Some (Cs_iv (k land 0xFFFF, k land 0xFFFF))
                | O.S_reg rs -> (
                  match st.regs.(rs) with
                  | Iv (l, h) -> Some (Cs_iv (l, h))
                  | _ -> None)
                | O.S_indirect rs when st.regs.(rs) = Shadow -> Some Cs_shadow
                | _ -> None
              in
              match (ccell, csrc) with
              | Some c, Some cs -> Some (cs, c)
              | _ -> None
            else None
          in
          apply insn ~dst v s;
          if op = O.BIC && s = O.S_immediate 1 && d = O.D_reg 2 then
            (* BIC #1,SR: the carry-clearing idiom before RRC *)
            carry_clr := true
          else if O.sets_flags op then begin
            last_cmp := next_cmp;
            carry_clr := false
          end);
        prev2 := !prev1;
        prev1 := Some insn;
        if not !stop then addr := a + size
  done;
  !succs

(* ------------------------------------------------------------------ *)
(* Whole-section verification *)

(* A loop that keeps moving a register changes its header's state on
   every trip.  After [widen_limit] such changes at a loop head, what
   still changes goes to its limit: an interval bound that moved goes
   to 0 or 0xFFFF, any other changed value to [Any]; what settled
   stays.  So a walk that keeps its lower bound and is bounded above by
   a CMP/Jcc pair in the loop keeps its proof, and R4 stays [Frame]
   only while it has not changed.  The result contains the joined
   state, so the widening goes up. *)
let widen_limit = 8

let widen ~old j =
  let keep o v =
    match (o, v) with
    | _ when o = v -> v
    | Iv (l, h), Iv (l', h') ->
      Iv ((if l' < l then 0 else l), if h' > h then 0xFFFF else h)
    | _ -> Any
  in
  {
    regs = Array.map2 keep old.regs j.regs;
    tos = keep old.tos j.tos;
    tos_shadow = j.tos_shadow;
  }

let verify sec ~mode =
  let ctx = { mode; sec; heads = Hashtbl.create 8 } in
  (* external control enters an app only at its function symbols or
     its exit stub; everything else is reached by edges *)
  let entries =
    List.filter_map
      (fun (a, _, kind) ->
        if kind = S.Fault_stub then None else Some (a, top_state ()))
      sec.S.spans
  in
  let states =
    Fixpoint.solve ~join:state_join ~equal:state_equal
      ~widen:(fun a ~joins ~old j ->
        if joins > widen_limit && Hashtbl.mem ctx.heads a then widen ~old j
        else j)
      ~transfer:(fun a st -> run ctx st a)
      entries
  in
  (* final pass: replay every reached block and record the verdicts *)
  let r =
    {
      viols = Hashtbl.create 8;
      visited = Hashtbl.create 256;
      passed = Hashtbl.create 64;
    }
  in
  Hashtbl.iter
    (fun a st -> ignore (run ctx ~recorder:r st a))
    states;
  if Hashtbl.length r.viols = 0 then begin
    let count k =
      Hashtbl.fold (fun (_, k') () n -> if k' = k then n + 1 else n) r.passed 0
    in
    Ok
      {
        v_insns = Hashtbl.length r.visited;
        v_blocks = Hashtbl.length states;
        v_stores = count 's';
        v_loads = count 'l';
        v_branches = count 'b';
        v_rets = count 'r';
      }
  end
  else
    Error
      (Hashtbl.fold (fun _ v acc -> v :: acc) r.viols []
      |> List.sort (fun a b -> compare (a.vaddr, a.vreason) (b.vaddr, b.vreason)))

let verify_app ~image ~mode ~prefix = verify (S.make image ~prefix) ~mode
