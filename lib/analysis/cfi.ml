(* Binary-level CFI certification: reconstruct the control-flow graph
   of an app's linked code section from the instruction stream alone
   and prove that every branch, call and return stays inside the app.

   The pass is independent of the compiler: it partitions the code
   section into the function and stub spans of the link map
   ({!Section}), decodes every byte with the simulator's own decoder,
   reads each instruction's effects from {!Amulet_mcu.Opcode}, and
   rejects any instruction whose control-flow effect cannot be
   classified:

   - relative jumps must land on an instruction boundary of the same
     function span;
   - [BR #imm] (the relaxed long-jump form) must target the same span,
     another span entry (fault stubs), or a sanctioned external
     ([__osreturn], runtime helpers, gates);
   - [CALL #imm] must target a function entry or a sanctioned
     external;
   - [CALL Rn] must be structurally dominated by the mode's
     code-bounds guard on Rn ([CMP #code_lo, Rn; JC] — plus the upper
     compare in software-only mode);
   - [RET] must be dominated by the return-address guard (or the
     shadow-stack compare) in the modes that require one;
   - any other instruction that writes the PC is a computed jump and
     is rejected outright — the class of transfer the interval-based
     SFI verifier cannot classify. *)

module O = Amulet_mcu.Opcode
module D = Amulet_mcu.Decode
module Cyc = Amulet_mcu.Cycles
module Iso = Amulet_cc.Isolation

type violation = { cv_addr : int; cv_text : string; cv_reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "%04X: %s — %s" v.cv_addr v.cv_text v.cv_reason

type insn = { i_addr : int; i_op : O.t; i_size : int }

(* Edge labels matter to the guard check: a bounds guard only proves
   its fact on the *taken* edge of the conditional it feeds. *)
type edge = E_fall | E_taken | E_jump

type block = {
  b_addr : int;
  b_insns : insn list;
  b_cycles : int;
  mutable b_succs : (int * edge) list;
}

type func = {
  f_name : string;
  f_entry : int;
  f_limit : int;
  f_stub : bool;
  f_blocks : block list;
}

type callee =
  | C_local of string
  | C_helper of string
  | C_gate of string  (** service name, gate label stripped *)
  | C_indirect

type t = {
  cf_section : Section.t;
  cf_mode : Iso.mode;
  cf_funcs : func list;
  cf_insns : int;
  cf_entry_of : (int, string) Hashtbl.t;  (* function entry -> name *)
  cf_stub_of : (int, string) Hashtbl.t;  (* stub entry -> name *)
  cf_addr_taken : string list;  (* functions whose entry escapes *)
}

(* Control transfers end a block; a CALL returns to the next
   instruction, so it does not. *)
let is_control = function
  | O.Fmt2 (O.CALL, _, _) -> false
  | op -> O.writes_reg op Amulet_mcu.Registers.pc

(* ------------------------------------------------------------------ *)
(* Guard-evidence check.

   [cell] is the value under test: a register (indirect call) or the
   return-address slot 0(SP).  A predecessor block discharges a bound
   when it ends with the compiler's guard shape — a CMP against the
   resolved section-bound constant feeding the conditional whose
   *taken* edge reaches us — and the remaining bounds recurse through
   that predecessor. *)

type cell = Cell_reg of int | Cell_ret

let insn_clobbers_cell cell op =
  match cell with
  | Cell_reg r -> O.writes_reg op r
  | Cell_ret ->
    (* anything that moves SP or stores to memory (the app's stack is
       inside its own data region, so any store may alias the return
       slot) invalidates 0(SP) *)
    O.writes_reg op Amulet_mcu.Registers.sp || O.writes_memory op

let cmp_matches cell bound op =
  match (cell, op) with
  | Cell_reg r, O.Fmt1 (O.CMP, _, O.S_immediate k, O.D_reg d) ->
    d = r && k = bound
  | Cell_ret, O.Fmt1 (O.CMP, _, O.S_immediate k, O.D_indexed (1, 0)) ->
    k = bound
  | _ -> false

(* The shadow-stack epilogue compares @R15 (the popped shadow entry)
   against 0(SP); equality proves the return address unmodified. *)
let cmp_is_shadow cell op =
  match (cell, op) with
  | Cell_ret, O.Fmt1 (O.CMP, _, O.S_indirect _, O.D_indexed (1, 0)) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Reconstruction *)

let of_section (sec : Section.t) ~mode =
  let prefix = sec.Section.prefix in
  let code_lo = sec.Section.code_lo and code_hi = sec.Section.code_hi in
  let fetch = sec.Section.fetch and extern = sec.Section.externals in
  let viols = ref [] in
  let report a op reason =
    let text =
      match op with Some o -> O.to_string o | None -> "<data>"
    in
    viols := { cv_addr = a; cv_text = text; cv_reason = reason } :: !viols
  in
  let span_list = sec.Section.spans in
  if span_list = [] then
    invalid_arg
      (Printf.sprintf "cfi: no function symbols in code section of %S" prefix);
  let entry_of = Hashtbl.create 16 and stub_of = Hashtbl.create 8 in
  List.iter
    (fun (a, name, kind) ->
      Hashtbl.replace
        (if kind = Section.Function then entry_of else stub_of)
        a name)
    span_list;
  let span_entry a = Hashtbl.mem entry_of a || Hashtbl.mem stub_of a in
  (* uncovered bytes before the first span would be unreachable code
     we cannot attribute; reject them *)
  (match span_list with
  | (first, _, _) :: _ when first <> code_lo ->
    report code_lo None "code before the first function symbol"
  | _ -> ());
  let total_insns = ref 0 in
  (* a span ends where the next one starts, the last at the section end *)
  let limits =
    List.tl (List.map (fun (a, _, _) -> a) span_list) @ [ code_hi ]
  in
  let funcs =
    List.map2
      (fun (entry, name, kind) limit ->
        let stub = kind <> Section.Function in
        (* linear-sweep decode: every byte of the span must decode *)
        let insns = Hashtbl.create 32 in
        let order = ref [] in
        let ok = ref true in
        let a = ref entry in
        while !ok && !a < limit do
          match D.decode ~fetch ~addr:!a with
          | op, size ->
            if !a + size > limit then begin
              report !a (Some op) "instruction overruns the function span";
              ok := false
            end
            else begin
              Hashtbl.replace insns !a { i_addr = !a; i_op = op; i_size = size };
              order := !a :: !order;
              a := !a + size
            end
          | exception D.Illegal w ->
            report !a None
              (Printf.sprintf "undecodable instruction word 0x%04X" w);
            ok := false
        done;
        let order = List.rev !order in
        total_insns := !total_insns + List.length order;
        let boundary a = Hashtbl.mem insns a in
        (* leaders: entry, every in-span jump target, and the
           instruction after any control transfer *)
        let leaders = Hashtbl.create 16 in
        Hashtbl.replace leaders entry ();
        List.iter
          (fun a ->
            let { i_op; i_size; _ } = Hashtbl.find insns a in
            let mark t =
              if t >= entry && t < limit && boundary t then
                Hashtbl.replace leaders t ()
            in
            (match O.jump_target i_op ~pc:a with
            | Some t -> mark t
            | None -> Option.iter mark (O.br_target i_op));
            if is_control i_op then mark (a + i_size))
          order;
        (* split into blocks, each kept with its last instruction *)
        let blocks = ref [] in
        let cur = ref [] in
        let flush () =
          match !cur with
          | [] -> ()
          | last :: _ as rev ->
            let l = List.rev rev in
            let addr = (List.hd l).i_addr in
            let cycles =
              List.fold_left (fun acc i -> acc + Cyc.cycles i.i_op) 0 l
            in
            blocks := ({ b_addr = addr; b_insns = l; b_cycles = cycles;
                         b_succs = [] }, last) :: !blocks;
            cur := []
        in
        List.iter
          (fun a ->
            if Hashtbl.mem leaders a then flush ();
            let i = Hashtbl.find insns a in
            cur := i :: !cur;
            if is_control i.i_op then flush ())
          order;
        flush ();
        let blocks = Array.of_list (List.rev !blocks) in
        (* successor edges + control-policy checks *)
        let in_span t = t >= entry && t < limit in
        Array.iteri
          (fun bi (b, last) ->
            let a = last.i_addr and op = last.i_op in
            let next_block () =
              if bi + 1 < Array.length blocks then
                Some (fst blocks.(bi + 1)).b_addr
              else None
            in
            let fall_off () =
              report a (Some op)
                (Printf.sprintf "control falls off the end of %s" name)
            in
            let fall_through () =
              match next_block () with
              | Some nb when nb = a + last.i_size ->
                b.b_succs <- (nb, E_fall) :: b.b_succs
              | _ -> fall_off ()
            in
            match (op, O.jump_target op ~pc:a) with
            | O.Jump (O.JMP, _), Some t ->
              if in_span t && boundary t then b.b_succs <- [ (t, E_jump) ]
              else report a (Some op) "jump target outside the function"
            | _, Some t ->
              if in_span t && boundary t then
                b.b_succs <- [ (t, E_taken) ]
              else report a (Some op) "branch target outside the function";
              fall_through ()
            | O.Reti, None -> report a (Some op) "RETI in application code"
            | _ when O.is_ret op -> () (* guard evidence checked below *)
            | _ -> (
              match O.br_target op with
              | Some k ->
                if in_span k && boundary k then b.b_succs <- [ (k, E_jump) ]
                else if span_entry k then () (* fault/exit stub or tail entry *)
                else if Hashtbl.mem extern k then ()
                else
                  report a (Some op)
                    (Printf.sprintf "branch to unclassified address 0x%04X" k)
              | None when is_control op ->
                report a (Some op) "computed jump (PC written from a register)"
              | None -> fall_through ()))
          blocks;
        (name, entry, limit, stub, Array.to_list (Array.map fst blocks)))
      span_list limits
  in
  (* predecessor edges for the guard-evidence check *)
  let preds = Hashtbl.create 64 in
  List.iter
    (fun (_, _, _, _, blocks) ->
      List.iter
        (fun b ->
          List.iter
            (fun (t, e) ->
              Hashtbl.replace preds t
                ((b, e) :: Option.value ~default:[] (Hashtbl.find_opt preds t)))
            b.b_succs)
        blocks)
    funcs;
  (* prove [needs] (subset of {lo, hi}) about [cell] on every path
     into [blk], walking guard-shaped predecessors *)
  let rec proves ~depth cell needs blk before =
    (* [before]: instructions of blk ahead of the point of interest,
       in reverse order (nearest first).  Once every needed bound has
       been discharged we are upstream of the earliest guard CMP, so
       clobbers no longer matter. *)
    if needs = [] then true
    else if List.exists (fun i -> insn_clobbers_cell cell i.i_op) before then
      false
    else if depth > 6 then false
    else
      match Hashtbl.find_opt preds blk.b_addr with
      | None | Some [] -> false
      | Some ps ->
        List.for_all
          (fun (p, e) ->
            (* which fact does p's terminating conditional establish? *)
            let rev = List.rev p.b_insns in
            match rev with
            | { i_op = O.Jump (cond, _); _ } :: rest ->
              (* the compiler emits the CMP immediately before the Jcc *)
              let discharged, before_cmp =
                match rest with
                | cmp :: more ->
                  let lo_ok =
                    e = E_taken && cond = O.JC
                    && cmp_matches cell code_lo cmp.i_op
                  in
                  let hi_ok =
                    e = E_taken && cond = O.JNC
                    && cmp_matches cell code_hi cmp.i_op
                  in
                  let shadow_ok =
                    e = E_taken && cond = O.JEQ && cmp_is_shadow cell cmp.i_op
                  in
                  if shadow_ok then (needs, more)
                  else if lo_ok then ([ `Lo ], more)
                  else if hi_ok then ([ `Hi ], more)
                  else ([], rest)
                | [] -> ([], [])
              in
              let remaining =
                List.filter (fun n -> not (List.mem n discharged)) needs
              in
              proves ~depth:(depth + 1) cell remaining p before_cmp
            | _ ->
              (* unconditional predecessor: recurse through it *)
              proves ~depth:(depth + 1) cell needs p (List.rev p.b_insns))
          ps
  in
  let needed_bounds () =
    (if Iso.checks_lower_bound mode then [ `Lo ] else [])
    @ if Iso.checks_upper_bound mode then [ `Hi ] else []
  in
  (* call-site and return checks *)
  List.iter
    (fun (name, _, _, stub, blocks) ->
      ignore name;
      List.iter
        (fun b ->
          let rec walk before = function
            | [] -> ()
            | i :: rest ->
              (match i.i_op with
              | O.Fmt2 (O.CALL, _, O.S_immediate k) ->
                if Hashtbl.mem entry_of k || Hashtbl.mem extern k then ()
                else
                  report i.i_addr (Some i.i_op)
                    (Printf.sprintf
                       "call to unclassified address 0x%04X" k)
              | O.Fmt2 (O.CALL, _, O.S_reg r) -> (
                match mode with
                | Iso.No_isolation -> ()
                | Iso.Feature_limited ->
                  report i.i_addr (Some i.i_op)
                    "indirect call in feature-limited mode"
                | Iso.Software_only | Iso.Mpu_assisted ->
                  if
                    not
                      (proves ~depth:0 (Cell_reg r) (needed_bounds ()) b
                         before)
                  then
                    report i.i_addr (Some i.i_op)
                      "indirect call without a dominating code-bounds \
                       guard")
              | O.Fmt2 (O.CALL, _, _) ->
                report i.i_addr (Some i.i_op)
                  "call through a memory operand"
              | _ when O.is_ret i.i_op ->
                if
                  (not stub) && prefix <> ""
                  && Iso.checks_lower_bound mode
                  && not (proves ~depth:0 Cell_ret (needed_bounds ()) b before)
                then
                  report i.i_addr (Some i.i_op)
                    "RET without a dominating return-address guard"
              | _ -> ());
              walk (i :: before) rest
          in
          walk [] b.b_insns)
        blocks)
    funcs;
  (* address-taken functions: an entry immediate in a non-call,
     non-branch context, or an entry-valued word in the data section *)
  let addr_taken = Hashtbl.create 8 in
  List.iter
    (fun (_, _, _, _, blocks) ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i.i_op with
              | O.Fmt2 (O.CALL, _, _) -> ()
              | _ when Option.is_some (O.br_target i.i_op) -> ()
              | O.Fmt1 (_, _, O.S_immediate k, _) -> (
                match Hashtbl.find_opt entry_of k with
                | Some n -> Hashtbl.replace addr_taken n ()
                | None -> ())
              | O.Fmt2 (O.PUSH, _, O.S_immediate k) -> (
                match Hashtbl.find_opt entry_of k with
                | Some n -> Hashtbl.replace addr_taken n ()
                | None -> ())
              | _ -> ())
            b.b_insns)
        blocks)
    funcs;
  let a = ref (sec.Section.data_lo land lnot 1) in
  while !a + 1 < sec.Section.data_hi do
    (match Hashtbl.find_opt entry_of (fetch !a) with
    | Some n -> Hashtbl.replace addr_taken n ()
    | None -> ());
    a := !a + 2
  done;
  let t =
    {
      cf_section = sec;
      cf_mode = mode;
      cf_funcs =
        List.map
          (fun (name, entry, limit, stub, blocks) ->
            { f_name = name; f_entry = entry; f_limit = limit;
              f_stub = stub; f_blocks = blocks })
          funcs;
      cf_insns = !total_insns;
      cf_entry_of = entry_of;
      cf_stub_of = stub_of;
      cf_addr_taken =
        Hashtbl.fold (fun k () acc -> k :: acc) addr_taken []
        |> List.sort compare;
    }
  in
  match !viols with
  | [] -> Ok t
  | vs -> Error (List.sort (fun a b -> compare a.cv_addr b.cv_addr) vs)

let reconstruct ~image ~mode ~prefix =
  of_section (Section.make image ~prefix) ~mode

(* ------------------------------------------------------------------ *)
(* Queries *)

let call_target t op =
  match op with
  | O.Fmt2 (O.CALL, _, O.S_immediate k) -> (
    match Hashtbl.find_opt t.cf_entry_of k with
    | Some n -> Some (C_local n)
    | None -> (
      match Hashtbl.find_opt t.cf_section.Section.externals k with
      | Some n -> (
        match Amulet_cc.Apis.service_of_gate_label n with
        | Some svc -> Some (C_gate svc)
        | None -> Some (C_helper n))
      | None -> None))
  | O.Fmt2 (O.CALL, _, O.S_reg _) -> Some C_indirect
  | _ -> None

let functions t = List.filter (fun f -> not f.f_stub) t.cf_funcs
let find_function t name = List.find_opt (fun f -> f.f_name = name) t.cf_funcs

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_cfg ppf t =
  List.iter
    (fun f ->
      if not f.f_stub then begin
        Format.fprintf ppf "%s:  %d block%s, %d bytes@." f.f_name
          (List.length f.f_blocks)
          (if List.length f.f_blocks = 1 then "" else "s")
          (f.f_limit - f.f_entry);
        List.iter
          (fun b ->
            let last = List.nth b.b_insns (List.length b.b_insns - 1) in
            let bend = last.i_addr + last.i_size in
            let calls =
              List.filter_map
                (fun i ->
                  match call_target t i.i_op with
                  | Some (C_local n) -> Some n
                  | Some (C_helper n) -> Some n
                  | Some (C_gate s) -> Some ("gate:" ^ s)
                  | Some C_indirect -> Some "<indirect>"
                  | None -> None)
                b.b_insns
            in
            Format.fprintf ppf "  %04X-%04X  %3d insns %4d cycles" b.b_addr
              bend (List.length b.b_insns) b.b_cycles;
            (match b.b_succs with
            | [] -> ()
            | ss ->
              Format.fprintf ppf "  ->%s"
                (String.concat ""
                   (List.map
                      (fun (a, e) ->
                        Printf.sprintf " %04X%s" a
                          (match e with
                          | E_taken -> "?"
                          | E_fall -> ""
                          | E_jump -> ""))
                      ss)));
            if calls <> [] then
              Format.fprintf ppf "  calls: %s" (String.concat ", " calls);
            Format.fprintf ppf "@.")
          f.f_blocks
      end)
    t.cf_funcs
