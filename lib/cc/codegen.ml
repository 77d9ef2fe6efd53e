open Tast
module A = Amulet_link.Asm
module O = Amulet_mcu.Opcode
module M = Amulet_mcu.Machine
module T = Amulet_mcu.Timer

(* Verdict of the (optional) range analysis for one dereference site,
   keyed by the source location of the access expression. *)
type site_class =
  | Proven_safe  (* always in bounds: the guard can be elided *)
  | Needs_check  (* unknown: emit the mode's run-time guard *)
  | Proven_unsafe of string  (* always out of bounds: compile error *)

type classifier = Srcloc.t -> site_class

type site_stats = { checked : int; elided : int; proven_unsafe : int }

type fn_info = {
  fi_name : string;
  fi_frame_bytes : int;
  fi_saved_regs : int;
  fi_calls : string list;
  fi_api_calls : string list;
  fi_sites : site_stats;
  fi_static_sites : int;
  fi_fnptr_calls : int;
  fi_spill_bytes : int;
      (* measured high-water mark of transient stack temporaries
         (expression spills + pushed call arguments) *)
  fi_runtime_bytes : int;
      (* deepest stack use of any runtime-helper or gate call made by
         this function (0 when it makes none) *)
}

type output = {
  code : A.item list;
  data : A.item list;
  infos : fn_info list;
  handlers : string list;
  loops : (string * int) list;
      (* (loop header label, max body executions) for every loop the
         range analysis bounded — the header label is the back-edge
         target, already present in the symbol table, so the AFT can
         stamp the bound into the image without changing a byte of
         code *)
}

let errf = Srcloc.errf

(* ------------------------------------------------------------------ *)
(* Program-wide generation context *)

type pctx = {
  prefix : string;
  mode : Isolation.mode;
  shadow : bool; (* shadow return-address stack *)
  classify : classifier;
  loop_bound : Srcloc.t -> int option; (* keyed by condition location *)
  env : Ctype.env;
  strings : (string, string) Hashtbl.t; (* contents -> label *)
  mutable string_counter : int;
  globals : (string, Ctype.t) Hashtbl.t;
  functions : (string, unit) Hashtbl.t; (* in-unit function names *)
  mutable loops : (string * int) list; (* header label -> bound *)
}

let intern_string p contents =
  match Hashtbl.find_opt p.strings contents with
  | Some label -> label
  | None ->
    p.string_counter <- p.string_counter + 1;
    let label =
      Printf.sprintf "%s$$str%d"
        (if p.prefix = "" then "os" else p.prefix)
        p.string_counter
    in
    Hashtbl.add p.strings contents label;
    label

(* ------------------------------------------------------------------ *)
(* Per-function context *)

type fctx = {
  p : pctx;
  fname : string;
  locals : (string, int * Ctype.t) Hashtbl.t; (* unique -> FP offset *)
  frame_bytes : int;
  buf : A.item list ref; (* reversed *)
  mutable labels : int;
  mutable used : int list; (* callee-saved scratch registers touched *)
  mutable free : int list; (* scratch register pool *)
  mutable breaks : string list;
  mutable continues : string list;
  mutable calls : string list;
  mutable api_calls : string list;
  mutable checked : int;
  mutable elided : int;
  mutable statics : int;
  mutable fnptr : int;
  mutable cur_push : int; (* bytes of live temporaries on the stack *)
  mutable max_push : int; (* high-water mark of cur_push *)
  mutable runtime_max : int; (* deepest runtime-helper/gate stack use *)
  epilogue : string;
}

let out c item = c.buf := item :: !(c.buf)

(* Track transient stack temporaries (expression spills, pushed call
   arguments) so the source-level stack bound can charge each function
   its measured spill high-water mark instead of a fixed slack. *)
let note_push c bytes =
  c.cur_push <- c.cur_push + bytes;
  if c.cur_push > c.max_push then c.max_push <- c.cur_push

let note_pop c bytes = c.cur_push <- c.cur_push - bytes

(* Total stack bytes a runtime-helper or gate call occupies below the
   caller's SP, as declared with the callable externals. *)
let note_runtime c callee =
  match Apis.footprint callee with
  | Some bytes -> if bytes > c.runtime_max then c.runtime_max <- bytes
  | None -> invalid_arg ("note_runtime: undeclared external " ^ callee)

let fresh c tag =
  c.labels <- c.labels + 1;
  Printf.sprintf "%s$L%d_%s"
    (Isolation.mangle ~prefix:c.p.prefix c.fname)
    c.labels tag

let alloc c =
  match c.free with
  | r :: rest ->
    c.free <- rest;
    if not (List.mem r c.used) then c.used <- r :: c.used;
    r
  | [] -> failwith "Codegen: register pool exhausted (internal error)"

let free_reg c r = c.free <- r :: c.free

(* Free a register only if it belongs to the scratch pool (the spill
   path in [eval_pair] can hand back the fixed register R13). *)
let free_scratch c r = if r >= 5 && r <= 11 then free_reg c r

let width_of env ty =
  match Ctype.sizeof env ty with 1 -> Amulet_mcu.Word.W8 | _ -> Amulet_mcu.Word.W16

let is_struct = function Ctype.Struct _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Places *)

type place =
  | Plocal of int * Ctype.t (* FP-relative offset *)
  | Pglobal of string * int * Ctype.t (* symbol + byte offset *)
  | Pdyn of int * Ctype.t * bool (* register holding address; needs check *)

let place_type = function
  | Plocal (_, t) | Pglobal (_, _, t) | Pdyn (_, t, _) -> t

let free_place c = function Pdyn (r, _, _) -> free_reg c r | _ -> ()

(* Inserted run-time checks.  Pattern: compare, skip-if-ok, long
   branch to the per-app fault stub (so stub distance never breaks the
   short-jump range).

   Every guard sequence is bracketed by a zero-size [$gs]/[$ge] label
   pair so profilers can attribute its cycles from the symbol table. *)

let guard_labels c =
  c.labels <- c.labels + 1;
  let base =
    Printf.sprintf "%s$L%d"
      (Isolation.mangle ~prefix:c.p.prefix c.fname)
      c.labels
  in
  (base ^ Isolation.guard_start_suffix, base ^ Isolation.guard_end_suffix)

let wrap_guard c items =
  if items = [] then []
  else begin
    let gs, ge = guard_labels c in
    (A.label gs :: items) @ [ A.label ge ]
  end

let emit_check c reg ~lo_sym ~hi_sym ~lo_reason ~hi_reason =
  let prefix = c.p.prefix in
  let mode = c.p.mode in
  if Isolation.checks_lower_bound mode then begin
    c.checked <- c.checked + 1;
    let gs, ge = guard_labels c in
    out c (A.label gs);
    let ok = fresh c "cklo" in
    out c (A.cmp (A.Simm (A.Sym lo_sym)) (A.Dreg reg));
    out c (A.jcc O.JC ok); (* unsigned >= lower bound: fine *)
    out c (A.br (A.Sym (Isolation.fault_stub_label ~prefix lo_reason)));
    out c (A.label ok);
    if Isolation.checks_upper_bound mode then begin
      let ok2 = fresh c "ckhi" in
      out c (A.cmp (A.Simm (A.Sym hi_sym)) (A.Dreg reg));
      out c (A.jcc O.JNC ok2); (* unsigned < upper bound: fine *)
      out c (A.br (A.Sym (Isolation.fault_stub_label ~prefix hi_reason)));
      out c (A.label ok2)
    end;
    out c (A.label ge)
  end

let emit_data_check c reg =
  emit_check c reg
    ~lo_sym:(Isolation.data_lo_sym ~prefix:c.p.prefix)
    ~hi_sym:(Isolation.data_hi_sym ~prefix:c.p.prefix)
    ~lo_reason:Isolation.fault_data_lo ~hi_reason:Isolation.fault_data_hi

let emit_code_check c reg =
  emit_check c reg
    ~lo_sym:(Isolation.code_lo_sym ~prefix:c.p.prefix)
    ~hi_sym:(Isolation.code_hi_sym ~prefix:c.p.prefix)
    ~lo_reason:Isolation.fault_code_ptr ~hi_reason:Isolation.fault_code_ptr

(* Decide whether a computed-address access still needs its run-time
   guard.  The range analysis (lib/analysis) classifies sites by
   source location; without it every site is checked, as before. *)
let dyn_needs_check c (loc : Srcloc.t) =
  Isolation.checks_lower_bound c.p.mode
  &&
  match c.p.classify loc with
  | Needs_check -> true
  | Proven_safe ->
    c.elided <- c.elided + 1;
    false
  | Proven_unsafe msg -> errf loc "%s" msg

(* Feature-limited array-index check through the runtime helper. *)
let emit_array_check c idx_reg len =
  c.checked <- c.checked + 1;
  let gs, ge = guard_labels c in
  out c (A.label gs);
  out c (A.mov (A.Sreg idx_reg) (A.Dreg 14));
  out c (A.mov (A.imm len) (A.Dreg 15));
  note_runtime c "__bounds_check";
  out c (A.call "__bounds_check");
  out c (A.label ge)

(* Discharge the pending check of a dynamic place (before its first
   access); returns a place that will not be checked again. *)
let discharge_check c = function
  | Pdyn (r, t, true) ->
    emit_data_check c r;
    Pdyn (r, t, false)
  | p -> p

let src_of_place c = function
  | Plocal (off, _) -> A.Sidx (A.r_fp, A.Num off)
  | Pglobal (sym, 0, _) -> A.Sabs (A.Sym sym)
  | Pglobal (sym, off, _) -> A.Sabs (A.Off (sym, off))
  | Pdyn (r, _, _) ->
    ignore c;
    A.Sind r

let dst_of_place = function
  | Plocal (off, _) -> A.Didx (A.r_fp, A.Num off)
  | Pglobal (sym, 0, _) -> A.Dabs (A.Sym sym)
  | Pglobal (sym, off, _) -> A.Dabs (A.Off (sym, off))
  | Pdyn (r, _, _) -> A.Didx (r, A.Num 0)

(* Load a scalar place into a register (allocating it). *)
let load c place =
  let place = discharge_check c place in
  (match place with Pdyn _ -> () | _ -> c.statics <- c.statics + 1);
  let ty = place_type place in
  let rd = alloc c in
  let w = width_of c.p.env ty in
  out c (A.Ins (A.I1 (O.MOV, w, src_of_place c place, A.Dreg rd)));
  (rd, place)

(* Store a register into a scalar place. *)
let store c rv place =
  let place = discharge_check c place in
  (match place with Pdyn _ -> () | _ -> c.statics <- c.statics + 1);
  let w = width_of c.p.env (place_type place) in
  out c (A.Ins (A.I1 (O.MOV, w, A.Sreg rv, dst_of_place place)));
  place

(* Materialize the address of a place into a register. *)
let lea c place =
  match place with
  | Plocal (off, _) ->
    let rd = alloc c in
    out c (A.mov (A.Sreg A.r_fp) (A.Dreg rd));
    if off <> 0 then out c (A.add (A.imm off) (A.Dreg rd));
    rd
  | Pglobal (sym, off, _) ->
    let rd = alloc c in
    let e = if off = 0 then A.Sym sym else A.Off (sym, off) in
    out c (A.mov (A.Simm e) (A.Dreg rd));
    rd
  | Pdyn (r, _, _) -> r

(* ------------------------------------------------------------------ *)
(* Constant folding (for global initializers, array scaling, shifts) *)

(* Folding must reproduce the machine's 16-bit semantics exactly,
   including the signedness rules the generated code would apply
   (division, modulo and right shift depend on the operand types).
   Results are normalized to the signed range -32768..32767. *)

let is_signed = function Ctype.Int -> true | _ -> false

let s16 v =
  let v = v land 0xFFFF in
  if v >= 0x8000 then v - 0x10000 else v

let u16 v = v land 0xFFFF

let rec fold_const (e : texpr) : int option =
  match e.te with
  | Tnum n -> Some (s16 n)
  | Tun (Ast.Neg, a) -> Option.map (fun v -> s16 (-v)) (fold_const a)
  | Tun (Ast.Bnot, a) -> Option.map (fun v -> s16 (lnot v)) (fold_const a)
  | Tbin (op, a, b) -> (
    match (fold_const a, fold_const b) with
    | Some x, Some y -> (
      let signed = is_signed a.ty && is_signed b.ty in
      match op with
      | Ast.Add -> Some (s16 (x + y))
      | Ast.Sub -> Some (s16 (x - y))
      | Ast.Mul -> Some (s16 (x * y))
      | Ast.Div when u16 y <> 0 ->
        Some (s16 (if signed then s16 x / s16 y else u16 x / u16 y))
      | Ast.Mod when u16 y <> 0 ->
        Some (s16 (if signed then s16 x mod s16 y else u16 x mod u16 y))
      | Ast.Band -> Some (s16 (x land y))
      | Ast.Bor -> Some (s16 (x lor y))
      | Ast.Bxor -> Some (s16 (x lxor y))
      | Ast.Shl -> Some (s16 (u16 x lsl (y land 15)))
      | Ast.Shr ->
        Some
          (s16
             (if is_signed a.ty then s16 x asr (y land 15)
              else u16 x lsr (y land 15)))
      | _ -> None)
    | _ -> None)
  | Tcast (ty, a) -> (
    match (ty, fold_const a) with
    | Ctype.Char, Some v -> Some (v land 0xFF)
    | _, v -> v)
  | _ -> None

let log2_exact n =
  let rec go k v = if v = n then Some k else if v > n then None else go (k + 1) (v * 2) in
  if n <= 0 then None else go 0 1

(* ------------------------------------------------------------------ *)
(* Helper calls (multiplication, division, shifts) *)

let helper_binop c name ra rb =
  out c (A.mov (A.Sreg ra) (A.Dreg 12));
  out c (A.mov (A.Sreg rb) (A.Dreg 13));
  note_runtime c name;
  out c (A.call name);
  out c (A.mov (A.Sreg 12) (A.Dreg ra))


(* Multiply register by a constant, in place. *)
let emit_scale c reg n =
  match n with
  | 1 -> ()
  | _ -> (
    match log2_exact n with
    | Some k ->
      for _ = 1 to k do
        out c (A.add (A.Sreg reg) (A.Dreg reg))
      done
    | None ->
      out c (A.mov (A.Sreg reg) (A.Dreg 12));
      out c (A.mov (A.imm n) (A.Dreg 13));
      note_runtime c "__mulhi";
      out c (A.call "__mulhi");
      out c (A.mov (A.Sreg 12) (A.Dreg reg)))

let emit_shift_const c reg k ~kind =
  for _ = 1 to min k 16 do
    match kind with
    | `Left -> out c (A.add (A.Sreg reg) (A.Dreg reg))
    | `Arith -> out c (A.Ins (A.I2 (O.RRA, Amulet_mcu.Word.W16, A.Sreg reg)))
    | `Logical ->
      (* clear carry, then rotate right through carry *)
      out c (A.bic (A.imm 1) (A.Dreg A.r_sr));
      out c (A.Ins (A.I2 (O.RRC, Amulet_mcu.Word.W16, A.Sreg reg)))
  done

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let pointee_size c = function
  | Ctype.Ptr t when t <> Ctype.Void -> Ctype.sizeof c.p.env t
  | _ -> 1

let rec eval c (e : texpr) : int =
  match e.te with
  | Tnum n ->
    let rd = alloc c in
    out c (A.mov (A.imm (n land 0xFFFF)) (A.Dreg rd));
    rd
  | Tstr s ->
    let label = intern_string c.p s in
    let rd = alloc c in
    out c (A.mov (A.Simm (A.Sym label)) (A.Dreg rd));
    rd
  | Tfunc_name f ->
    let rd = alloc c in
    out c (A.mov (A.Simm (A.Sym (Isolation.mangle ~prefix:c.p.prefix f))) (A.Dreg rd));
    rd
  | Tlocal _ | Tglobal _ | Tderef _ | Tindex _ | Tmember _ | Tarrow _ ->
    if is_struct e.ty then
      errf e.tloc "struct values can only be accessed through their fields";
    let place = eval_place c e in
    let r, place = load c place in
    free_place c place;
    r
  | Taddr inner ->
    let place = eval_place c inner in
    let r = lea c place in
    (* lea may return the Pdyn register itself: ownership transfers *)
    (match place with Pdyn _ -> () | _ -> ());
    r
  | Tassign (lhs, rhs) ->
    let rv = eval c rhs in
    let place = eval_place c lhs in
    let place = store c rv place in
    free_place c place;
    rv
  | Top_assign (op, lhs, rhs) ->
    let place = eval_place c lhs in
    let place = discharge_check c place in
    let rl, place = load c place in
    let rv = eval c rhs in
    apply_binop c op ~ty_l:lhs.ty ~ty_r:rhs.ty rl rv e.tloc;
    free_reg c rv;
    let place = store c rl place in
    free_place c place;
    rl
  | Tbin (op, a, b) -> eval_bin c op a b e.tloc
  | Tun (Ast.Neg, a) ->
    let r = eval_spillsafe c a in
    out c (A.xor (A.imm 0xFFFF) (A.Dreg r));
    out c (A.inc (A.Dreg r));
    r
  | Tun (Ast.Bnot, a) ->
    let r = eval_spillsafe c a in
    out c (A.xor (A.imm 0xFFFF) (A.Dreg r));
    r
  | Tun (Ast.Lnot, a) -> eval_bool c e ~via:(fun tlabel flabel -> branch c a ~if_true:flabel ~if_false:tlabel)
  | Tcond (cond, t, f) ->
    let ltrue = fresh c "ct" and lfalse = fresh c "cf" and lend = fresh c "ce" in
    if List.length c.free > 2 then begin
      let rd = alloc c in
      branch c cond ~if_true:ltrue ~if_false:lfalse;
      out c (A.label ltrue);
      let rt = eval c t in
      out c (A.mov (A.Sreg rt) (A.Dreg rd));
      free_reg c rt;
      out c (A.jmp lend);
      out c (A.label lfalse);
      let rf = eval c f in
      out c (A.mov (A.Sreg rf) (A.Dreg rd));
      free_reg c rf;
      out c (A.label lend);
      rd
    end
    else begin
      (* register-starved: park the branch result on the stack so the
         arms evaluate with the full remaining pool *)
      branch c cond ~if_true:ltrue ~if_false:lfalse;
      (* the two arms are alternatives: each pushes once, the join
         pops once, so the depth accounting must not stack them *)
      let depth0 = c.cur_push in
      out c (A.label ltrue);
      let rt = eval c t in
      out c (A.push (A.Sreg rt));
      note_push c 2;
      free_reg c rt;
      out c (A.jmp lend);
      c.cur_push <- depth0;
      out c (A.label lfalse);
      let rf = eval c f in
      out c (A.push (A.Sreg rf));
      note_push c 2;
      free_reg c rf;
      out c (A.label lend);
      let rd = alloc c in
      out c (A.pop rd);
      note_pop c 2;
      rd
    end
  | Tcall (name, args) -> eval_call c name args
  | Tcall_ptr (callee, args) -> eval_call_ptr c callee args
  | Tpre_incr a -> incr_decr c a ~post:false ~sign:1
  | Tpre_decr a -> incr_decr c a ~post:false ~sign:(-1)
  | Tpost_incr a -> incr_decr c a ~post:true ~sign:1
  | Tpost_decr a -> incr_decr c a ~post:true ~sign:(-1)
  | Tcast (ty, a) ->
    let r = eval_spillsafe c a in
    (match (ty, a.ty) with
    | Ctype.Char, t when t <> Ctype.Char ->
      out c (A.and_ (A.imm 0xFF) (A.Dreg r))
    | _ -> ());
    r

and eval_spillsafe c e = eval c e

(* Evaluate two subexpressions into registers, spilling the first onto
   the stack when the pool runs dry.  Returns (ra, rb) where ra holds
   a's value; in the spill case b's value comes back in the fixed
   scratch register R13 (callers must free rb with [free_scratch]). *)
and eval_pair c a b =
  let ra = eval c a in
  if c.free = [] then begin
    out c (A.push (A.Sreg ra));
    note_push c 2;
    free_reg c ra;
    let rb = eval c b in
    (* move b aside, restore a into the pool register *)
    out c (A.mov (A.Sreg rb) (A.Dreg 13));
    out c (A.pop rb);
    note_pop c 2;
    (rb, 13)
  end
  else (ra, eval c b)

and eval_bin c op a b loc =
  match op with
  | Ast.Land | Ast.Lor | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge ->
    eval_bool c { te = Tbin (op, a, b); ty = Ctype.Int; tloc = loc }
      ~via:(fun tl fl -> branch c { te = Tbin (op, a, b); ty = Ctype.Int; tloc = loc } ~if_true:tl ~if_false:fl)
  | Ast.Shl | Ast.Shr when fold_const b <> None ->
    let k = Option.get (fold_const b) land 15 in
    let ra = eval c a in
    let kind =
      match op with
      | Ast.Shl -> `Left
      | _ -> if is_signed a.ty then `Arith else `Logical
    in
    emit_shift_const c ra k ~kind;
    ra
  | Ast.Mul when (match fold_const b with Some n -> log2_exact n <> None | None -> false) ->
    let ra = eval c a in
    emit_scale c ra (Option.get (fold_const b));
    ra
  | _ ->
    let ra, rb = eval_pair c a b in
    apply_binop c op ~ty_l:a.ty ~ty_r:b.ty ra rb loc;
    (* pointer difference: divide by element size *)
    (match op with
    | Ast.Sub when Ctype.is_pointer a.ty && Ctype.is_pointer b.ty ->
      let size = pointee_size c a.ty in
      (match log2_exact size with
      | Some k -> emit_shift_const c ra k ~kind:`Arith
      | None ->
        out c (A.mov (A.Sreg ra) (A.Dreg 12));
        out c (A.mov (A.imm size) (A.Dreg 13));
        note_runtime c "__divhi";
        out c (A.call "__divhi");
        out c (A.mov (A.Sreg 12) (A.Dreg ra)))
    | _ -> ());
    free_scratch c rb;
    ra

(* Apply a (non-comparison) binary operation: ra := ra op rb. *)
and apply_binop c op ~ty_l ~ty_r ra rb loc =
  let signed = is_signed ty_l && is_signed ty_r in
  match op with
  | Ast.Add ->
    if Ctype.is_pointer ty_l && Ctype.is_integer ty_r then
      emit_scale c rb (pointee_size c ty_l);
    out c (A.add (A.Sreg rb) (A.Dreg ra))
  | Ast.Sub ->
    if Ctype.is_pointer ty_l && Ctype.is_integer ty_r then
      emit_scale c rb (pointee_size c ty_l);
    out c (A.sub (A.Sreg rb) (A.Dreg ra))
  | Ast.Mul -> helper_binop c "__mulhi" ra rb
  | Ast.Div -> helper_binop c (if signed then "__divhi" else "__udivhi") ra rb
  | Ast.Mod -> helper_binop c (if signed then "__modhi" else "__umodhi") ra rb
  | Ast.Band -> out c (A.and_ (A.Sreg rb) (A.Dreg ra))
  | Ast.Bor -> out c (A.bis (A.Sreg rb) (A.Dreg ra))
  | Ast.Bxor -> out c (A.xor (A.Sreg rb) (A.Dreg ra))
  | Ast.Shl -> helper_binop c "__shlhi" ra rb
  | Ast.Shr ->
    helper_binop c (if is_signed ty_l then "__sarhi" else "__shrhi") ra rb
  | Ast.Land | Ast.Lor | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge ->
    errf loc "internal: comparison reached apply_binop"

(* Produce 0/1 from a branching condition. *)
and eval_bool c _e ~via =
  let ltrue = fresh c "bt" and lfalse = fresh c "bf" and lend = fresh c "be" in
  via ltrue lfalse;
  let rd = alloc c in
  out c (A.label ltrue);
  out c (A.mov (A.imm 1) (A.Dreg rd));
  out c (A.jmp lend);
  out c (A.label lfalse);
  out c (A.mov (A.imm 0) (A.Dreg rd));
  out c (A.label lend);
  rd

(* Conditional branch on a boolean expression. *)
and branch c (e : texpr) ~if_true ~if_false =
  match e.te with
  | Tnum 0 -> out c (A.jmp if_false)
  | Tnum _ -> out c (A.jmp if_true)
  | Tun (Ast.Lnot, a) -> branch c a ~if_true:if_false ~if_false:if_true
  | Tbin (Ast.Land, a, b) ->
    let mid = fresh c "and" in
    branch c a ~if_true:mid ~if_false;
    out c (A.label mid);
    branch c b ~if_true ~if_false
  | Tbin (Ast.Lor, a, b) ->
    let mid = fresh c "or" in
    branch c a ~if_true ~if_false:mid;
    out c (A.label mid);
    branch c b ~if_true ~if_false
  | Tbin (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge) as op), a, b) ->
    let signed = is_signed a.ty && is_signed b.ty in
    let ra, rb = eval_pair c a b in
    (* CMP rb, ra computes ra - rb *)
    let jump_true =
      match op with
      | Ast.Eq -> out c (A.cmp (A.Sreg rb) (A.Dreg ra)); O.JEQ
      | Ast.Ne -> out c (A.cmp (A.Sreg rb) (A.Dreg ra)); O.JNE
      | Ast.Lt ->
        out c (A.cmp (A.Sreg rb) (A.Dreg ra));
        if signed then O.JL else O.JNC
      | Ast.Ge ->
        out c (A.cmp (A.Sreg rb) (A.Dreg ra));
        if signed then O.JGE else O.JC
      | Ast.Gt ->
        out c (A.cmp (A.Sreg ra) (A.Dreg rb));
        if signed then O.JL else O.JNC
      | Ast.Le ->
        out c (A.cmp (A.Sreg ra) (A.Dreg rb));
        if signed then O.JGE else O.JC
      | _ -> assert false
    in
    free_reg c ra;
    free_scratch c rb;
    out c (A.jcc jump_true if_true);
    out c (A.jmp if_false)
  | _ ->
    let r = eval c e in
    out c (A.tst (A.Dreg r));
    free_reg c r;
    out c (A.jcc O.JNE if_true);
    out c (A.jmp if_false)

(* ------------------------------------------------------------------ *)
(* Lvalue resolution *)

and eval_place c (e : texpr) : place =
  match e.te with
  | Tlocal name -> (
    match Hashtbl.find_opt c.locals name with
    | Some (off, ty) -> Plocal (off, ty)
    | None -> errf e.tloc "internal: unknown local %s" name)
  | Tglobal name ->
    Pglobal (Isolation.mangle ~prefix:c.p.prefix name, 0, e.ty)
  | Tderef p ->
    let r = eval c p in
    Pdyn (r, e.ty, dyn_needs_check c e.tloc)
  | Tindex (base, idx) -> eval_index_place c e base idx
  | Tmember (b, field) -> (
    let bp = eval_place c b in
    match bp with
    | Plocal (off, _) -> Plocal (off + field.Ctype.foffset, field.Ctype.ftype)
    | Pglobal (s, off, _) ->
      Pglobal (s, off + field.Ctype.foffset, field.Ctype.ftype)
    | Pdyn (r, _, chk) ->
      if field.Ctype.foffset <> 0 then
        out c (A.add (A.imm field.Ctype.foffset) (A.Dreg r));
      Pdyn (r, field.Ctype.ftype, chk))
  | Tarrow (p, field) ->
    let r = eval c p in
    if field.Ctype.foffset <> 0 then
      out c (A.add (A.imm field.Ctype.foffset) (A.Dreg r));
    Pdyn (r, field.Ctype.ftype, dyn_needs_check c e.tloc)
  | Tcast (_, inner) -> eval_place c inner
  | Tstr s ->
    let label = intern_string c.p s in
    Pglobal (label, 0, Ctype.Array (Ctype.Char, String.length s + 1))
  | _ -> errf e.tloc "expression is not an lvalue"

and eval_index_place c e base idx =
  let elem_ty = e.ty in
  let elem_size = Ctype.sizeof c.p.env elem_ty in
  let const_idx = fold_const idx in
  match (base.ty, const_idx) with
  | Ctype.Array (_, n), Some k ->
    (* constant index into a named array: statically verified *)
    if k < 0 || k >= n then errf e.tloc "constant index %d out of bounds" k;
    let bp = eval_place c base in
    (match bp with
    | Plocal (off, _) -> Plocal (off + (k * elem_size), elem_ty)
    | Pglobal (s, off, _) -> Pglobal (s, off + (k * elem_size), elem_ty)
    | Pdyn (r, _, chk) ->
      if k <> 0 then out c (A.add (A.imm (k * elem_size)) (A.Dreg r));
      Pdyn (r, elem_ty, chk))
  | Ctype.Array (_, n), None ->
    (* dynamic index into an array *)
    let ri = eval c idx in
    if c.p.mode = Isolation.Feature_limited then emit_array_check c ri n;
    emit_scale c ri elem_size;
    let bp = eval_place c base in
    let rb = lea c bp in
    out c (A.add (A.Sreg ri) (A.Dreg rb));
    (match bp with
    | Pdyn (_, _, chk) ->
      free_reg c ri;
      Pdyn (rb, elem_ty, chk)
    | _ ->
      free_reg c ri;
      (* base address is static; the scaled index makes it dynamic *)
      Pdyn (rb, elem_ty, dyn_needs_check c e.tloc))
  | _ ->
    (* pointer indexing: p[i] == *(p + i) *)
    let rp, ri = eval_pair c base idx in
    emit_scale c ri elem_size;
    out c (A.add (A.Sreg ri) (A.Dreg rp));
    free_scratch c ri;
    Pdyn (rp, elem_ty, dyn_needs_check c e.tloc)

(* ------------------------------------------------------------------ *)
(* Increment / decrement *)

and incr_decr c (a : texpr) ~post ~sign =
  let step =
    (if Ctype.is_pointer a.ty then pointee_size c a.ty else 1) * sign
  in
  let place = eval_place c a in
  let place = discharge_check c place in
  let r, place = load c place in
  let result =
    if post then begin
      let rold = alloc c in
      out c (A.mov (A.Sreg r) (A.Dreg rold));
      rold
    end
    else r
  in
  out c (A.add (A.imm (step land 0xFFFF)) (A.Dreg r));
  let place = store c r place in
  free_place c place;
  if post then free_reg c r;
  result

(* ------------------------------------------------------------------ *)
(* Calls *)

and push_args c args =
  List.iter
    (fun a ->
      let r = eval c a in
      out c (A.push (A.Sreg r));
      note_push c 2;
      free_reg c r)
    (List.rev args);
  2 * List.length args

and eval_call c name args =
  if Apis.find name <> None then eval_api_call c name args
  else if Hashtbl.mem c.p.functions name then begin
    let bytes = push_args c args in
    c.calls <- name :: c.calls;
    out c (A.call (Isolation.mangle ~prefix:c.p.prefix name));
    if bytes > 0 then begin
      out c (A.add (A.imm bytes) (A.Dreg A.r_sp));
      note_pop c bytes
    end;
    let rd = alloc c in
    out c (A.mov (A.Sreg 12) (A.Dreg rd));
    rd
  end
  else eval_builtin c name args

and eval_api_call c name args =
  (* API calls pass up to three arguments in R12-R14 and context-switch
     through the AFT-generated gate. *)
  if List.length args > 3 then
    failwith ("API call " ^ name ^ " has too many arguments");
  let regs = List.map (fun a -> eval c a) args in
  List.iteri
    (fun i r -> out c (A.mov (A.Sreg r) (A.Dreg (12 + i))))
    regs;
  List.iter (free_reg c) regs;
  c.api_calls <- name :: c.api_calls;
  let gate = Apis.gate_label name in
  note_runtime c gate;
  out c (A.call gate);
  let rd = alloc c in
  out c (A.mov (A.Sreg 12) (A.Dreg rd));
  rd

and eval_builtin c name args =
  let unit_result () =
    let rd = alloc c in
    out c (A.mov (A.imm 0) (A.Dreg rd));
    rd
  in
  match (name, args) with
  | "__halt", [] ->
    out c (A.mov (A.imm 1) (A.Dabs (A.Num M.halt_port)));
    unit_result ()
  | "__putc", [ a ] ->
    let r = eval c a in
    out c (A.Ins (A.I1 (O.MOV, Amulet_mcu.Word.W8, A.Sreg r, A.Dabs (A.Num M.console_port))));
    free_reg c r;
    unit_result ()
  | "__timer_start", [] ->
    (* divider /16: ID=/8, IDEX=/2, continuous mode, clear *)
    out c (A.mov (A.imm 1) (A.Dabs (A.Num T.ex0_addr)));
    out c (A.mov (A.imm ((3 lsl 6) lor (2 lsl 4) lor 0x4)) (A.Dabs (A.Num T.ctl_addr)));
    unit_result ()
  | "__timer_read", [] ->
    let rd = alloc c in
    out c (A.mov (A.Sabs (A.Num T.counter_addr)) (A.Dreg rd));
    rd
  | _ ->
    failwith
      (Printf.sprintf "call to unknown external function %s (no gate/builtin)"
         name)

and eval_call_ptr c callee args =
  let rc = eval c callee in
  let bytes = push_args c args in
  c.fnptr <- c.fnptr + 1;
  emit_code_check c rc;
  out c (A.call_reg rc);
  free_reg c rc;
  if bytes > 0 then begin
    out c (A.add (A.imm bytes) (A.Dreg A.r_sp));
    note_pop c bytes
  end;
  let rd = alloc c in
  out c (A.mov (A.Sreg 12) (A.Dreg rd));
  rd

(* ------------------------------------------------------------------ *)
(* Statements *)

(* Attach the range analysis's iteration bound (if any) to the loop's
   header label — the back-edge target the binary loop detection will
   find.  The label is emitted as an ordinary symbol anyway, so this
   only adds metadata: generated code is unchanged byte for byte. *)
let note_loop_bound c (cond : texpr) header =
  match c.p.loop_bound cond.tloc with
  | Some b -> c.p.loops <- (header, b) :: c.p.loops
  | None -> ()

let rec gen_stmt c (s : tstmt) =
  match s with
  | Tsexpr e ->
    let r = eval c e in
    free_reg c r
  | Tsdecl (name, ty, init) -> gen_decl c name ty init
  | Tsif (cond, then_, else_) ->
    let lt = fresh c "it" and lf = fresh c "ie" and lend = fresh c "ix" in
    branch c cond ~if_true:lt ~if_false:lf;
    out c (A.label lt);
    List.iter (gen_stmt c) then_;
    out c (A.jmp lend);
    out c (A.label lf);
    List.iter (gen_stmt c) else_;
    out c (A.label lend)
  | Tswhile (cond, body) ->
    let lcond = fresh c "wc" and lbody = fresh c "wb" and lend = fresh c "wx" in
    note_loop_bound c cond lcond;
    out c (A.label lcond);
    branch c cond ~if_true:lbody ~if_false:lend;
    out c (A.label lbody);
    c.breaks <- lend :: c.breaks;
    c.continues <- lcond :: c.continues;
    List.iter (gen_stmt c) body;
    c.breaks <- List.tl c.breaks;
    c.continues <- List.tl c.continues;
    out c (A.jmp lcond);
    out c (A.label lend)
  | Tsdo_while (body, cond) ->
    let lbody = fresh c "db" and lcond = fresh c "dc" and lend = fresh c "dx" in
    note_loop_bound c cond lbody;
    out c (A.label lbody);
    c.breaks <- lend :: c.breaks;
    c.continues <- lcond :: c.continues;
    List.iter (gen_stmt c) body;
    c.breaks <- List.tl c.breaks;
    c.continues <- List.tl c.continues;
    out c (A.label lcond);
    branch c cond ~if_true:lbody ~if_false:lend;
    out c (A.label lend)
  | Tsfor (init, cond, step, body) ->
    Option.iter (gen_stmt c) init;
    let lcond = fresh c "fc" and lbody = fresh c "fb" in
    let lstep = fresh c "fs" and lend = fresh c "fx" in
    Option.iter (fun e -> note_loop_bound c e lcond) cond;
    out c (A.label lcond);
    (match cond with
    | Some e -> branch c e ~if_true:lbody ~if_false:lend
    | None -> ());
    out c (A.label lbody);
    c.breaks <- lend :: c.breaks;
    c.continues <- lstep :: c.continues;
    List.iter (gen_stmt c) body;
    c.breaks <- List.tl c.breaks;
    c.continues <- List.tl c.continues;
    out c (A.label lstep);
    (match step with
    | Some e ->
      let r = eval c e in
      free_reg c r
    | None -> ());
    out c (A.jmp lcond);
    out c (A.label lend)
  | Tsreturn e ->
    (match e with
    | Some e ->
      let r = eval c e in
      out c (A.mov (A.Sreg r) (A.Dreg 12));
      free_reg c r
    | None -> ());
    out c (A.jmp c.epilogue)
  | Tsbreak -> (
    match c.breaks with
    | l :: _ -> out c (A.jmp l)
    | [] -> failwith "break outside loop/switch")
  | Tscontinue -> (
    match c.continues with
    | l :: _ -> out c (A.jmp l)
    | [] -> failwith "continue outside loop")
  | Tsswitch (e, cases, default) ->
    let r = eval c e in
    let lend = fresh c "sx" in
    let case_labels = List.map (fun (v, _) -> (v, fresh c "sc")) cases in
    List.iter
      (fun (v, l) ->
        out c (A.cmp (A.imm (v land 0xFFFF)) (A.Dreg r));
        out c (A.jcc O.JEQ l))
      case_labels;
    free_reg c r;
    let ldefault = fresh c "sd" in
    out c (A.jmp (if default = None then lend else ldefault));
    c.breaks <- lend :: c.breaks;
    List.iter2
      (fun (_, body) (_, l) ->
        out c (A.label l);
        List.iter (gen_stmt c) body)
      cases case_labels;
    (match default with
    | Some body ->
      out c (A.label ldefault);
      List.iter (gen_stmt c) body
    | None -> ());
    c.breaks <- List.tl c.breaks;
    out c (A.label lend)
  | Tsblock body -> List.iter (gen_stmt c) body

and gen_decl c name ty init =
  let off, _ =
    match Hashtbl.find_opt c.locals name with
    | Some v -> v
    | None -> failwith ("internal: local without slot: " ^ name)
  in
  match init with
  | None -> ()
  | Some (Ti_expr e) ->
    let r = eval c e in
    let w = width_of c.p.env ty in
    out c (A.Ins (A.I1 (O.MOV, w, A.Sreg r, A.Didx (A.r_fp, A.Num off))));
    free_reg c r
  | Some (Ti_list es) ->
    let elem_ty = match ty with Ctype.Array (t, _) -> t | _ -> ty in
    let esize = Ctype.sizeof c.p.env elem_ty in
    let w = width_of c.p.env elem_ty in
    List.iteri
      (fun i e ->
        let r = eval c e in
        out c
          (A.Ins (A.I1 (O.MOV, w, A.Sreg r, A.Didx (A.r_fp, A.Num (off + (i * esize))))));
        free_reg c r)
      es
  | Some (Ti_str s) ->
    String.iteri
      (fun i ch ->
        out c
          (A.Ins
             (A.I1
                (O.MOV, Amulet_mcu.Word.W8, A.Simm (A.Num (Char.code ch)),
                 A.Didx (A.r_fp, A.Num (off + i))))))
      (s ^ "\000")

(* ------------------------------------------------------------------ *)
(* Locals layout *)

let rec collect_decls acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Tsdecl (name, ty, _) -> (name, ty) :: acc
      | Tsif (_, a, b) -> collect_decls (collect_decls acc a) b
      | Tswhile (_, b) | Tsdo_while (b, _) | Tsblock b -> collect_decls acc b
      | Tsfor (init, _, _, b) ->
        let acc = match init with Some s -> collect_decls acc [ s ] | None -> acc in
        collect_decls acc b
      | Tsswitch (_, cases, default) ->
        let acc =
          List.fold_left (fun acc (_, b) -> collect_decls acc b) acc cases
        in
        (match default with Some b -> collect_decls acc b | None -> acc)
      | _ -> acc)
    acc stmts

(* ------------------------------------------------------------------ *)
(* Function generation *)

let gen_function (p : pctx) (f : tfunc) : A.item list * fn_info =
  let mangled = Isolation.mangle ~prefix:p.prefix f.tfname in
  let epilogue = mangled ^ "$$epi" in
  let locals = Hashtbl.create 16 in
  (* parameters: FP+4, FP+6, ... *)
  List.iteri
    (fun i (name, ty) -> Hashtbl.add locals name (4 + (2 * i), ty))
    f.tfparams;
  (* locals: growing down from FP *)
  let cursor = ref 0 in
  List.iter
    (fun (name, ty) ->
      let size = (Ctype.sizeof p.env ty + 1) land lnot 1 in
      cursor := !cursor + size;
      Hashtbl.add locals name (- !cursor, ty))
    (List.rev (collect_decls [] f.tfbody));
  let frame = !cursor in
  let c =
    {
      p; fname = f.tfname; locals; frame_bytes = frame;
      buf = ref []; labels = 0; used = []; free = [ 5; 6; 7; 8; 9; 10; 11 ];
      breaks = []; continues = []; calls = []; api_calls = [];
      checked = 0; elided = 0; statics = 0; fnptr = 0;
      cur_push = 0; max_push = 0; runtime_max = 0; epilogue;
    }
  in
  List.iter (gen_stmt c) f.tfbody;
  let body = List.rev !(c.buf) in
  let saved = List.sort compare c.used in
  let shadow_push =
    (* copy the return address (at 0(SP) on entry) to the InfoMem
       shadow stack; R15 is caller-save and dead at this point *)
    if p.shadow then
      wrap_guard c
        [
          A.mov (A.Sabs (A.Num Isolation.shadow_sp_addr)) (A.Dreg 15);
          A.mov (A.Sind A.r_sp) (A.Didx (15, A.Num 0));
          A.add (A.imm 2) (A.Dreg 15);
          A.mov (A.Sreg 15) (A.Dabs (A.Num Isolation.shadow_sp_addr));
        ]
    else []
  in
  let prologue =
    [ A.label mangled ]
    @ shadow_push
    @ [ A.push (A.Sreg A.r_fp); A.mov (A.Sreg A.r_sp) (A.Dreg A.r_fp) ]
    @ (if frame > 0 then [ A.sub (A.imm frame) (A.Dreg A.r_sp) ] else [])
    @ List.map (fun r -> A.push (A.Sreg r)) saved
  in
  let shadow_check =
    if p.shadow then
      let ok = mangled ^ "$$shok" in
      wrap_guard c
        [
          A.mov (A.Sabs (A.Num Isolation.shadow_sp_addr)) (A.Dreg 15);
          A.sub (A.imm 2) (A.Dreg 15);
          A.mov (A.Sreg 15) (A.Dabs (A.Num Isolation.shadow_sp_addr));
          A.cmp (A.Sind 15) (A.Didx (A.r_sp, A.Num 0));
          A.jcc O.JEQ ok;
          A.br (A.Sym (Isolation.fault_stub_label ~prefix:p.prefix
                         Isolation.fault_shadow_stack));
          A.label ok;
        ]
    else []
  in
  let ret_check =
    (* bounds-check the return address (now at 0(SP)) before RET;
       subsumed by the shadow-stack comparison when that is enabled *)
    let prefix = p.prefix in
    if p.shadow then shadow_check
    else if prefix <> "" && Isolation.checks_lower_bound p.mode then begin
      let items = ref [] in
      let outi i = items := i :: !items in
      let ok = mangled ^ "$$retok" in
      outi (A.cmp (A.Simm (A.Sym (Isolation.code_lo_sym ~prefix))) (A.Didx (A.r_sp, A.Num 0)));
      outi (A.jcc O.JC ok);
      outi (A.br (A.Sym (Isolation.fault_stub_label ~prefix Isolation.fault_ret_addr)));
      outi (A.label ok);
      if Isolation.checks_upper_bound p.mode then begin
        let ok2 = mangled ^ "$$retok2" in
        outi (A.cmp (A.Simm (A.Sym (Isolation.code_hi_sym ~prefix))) (A.Didx (A.r_sp, A.Num 0)));
        outi (A.jcc O.JNC ok2);
        outi (A.br (A.Sym (Isolation.fault_stub_label ~prefix Isolation.fault_ret_addr)));
        outi (A.label ok2)
      end;
      wrap_guard c (List.rev !items)
    end
    else []
  in
  let epilogue_items =
    [ A.label epilogue ]
    @ List.map (fun r -> A.pop r) (List.rev saved)
    @ [ A.mov (A.Sreg A.r_fp) (A.Dreg A.r_sp); A.pop A.r_fp ]
    @ ret_check
    @ [ A.ret ]
  in
  let info =
    {
      fi_name = f.tfname;
      fi_frame_bytes = frame;
      fi_saved_regs = List.length saved;
      fi_calls = List.sort_uniq compare c.calls;
      fi_api_calls = List.rev c.api_calls;
      fi_sites = { checked = c.checked; elided = c.elided; proven_unsafe = 0 };
      fi_static_sites = c.statics;
      fi_fnptr_calls = c.fnptr;
      fi_spill_bytes = c.max_push;
      fi_runtime_bytes = c.runtime_max;
    }
  in
  (prologue @ body @ epilogue_items, info)

(* ------------------------------------------------------------------ *)
(* Globals *)

(* A global initializer element: either a plain constant or the
   address of a string literal / function / global. *)
let init_expr_of p (e : texpr) loc : A.expr =
  match fold_const e with
  | Some v -> A.Num (v land 0xFFFF)
  | None -> (
    match e.te with
    | Tstr s -> A.Sym (intern_string p s)
    | Tfunc_name f -> A.Sym (Isolation.mangle ~prefix:p.prefix f)
    | Taddr { te = Tglobal g; _ } ->
      A.Sym (Isolation.mangle ~prefix:p.prefix g)
    | _ -> errf loc "global initializer must be a constant")

let gen_globals p (globals : tglobal list) =
  let items = ref [] in
  let outi i = items := i :: !items in
  let emit_scalar_init e ty =
    let ie = init_expr_of p e e.tloc in
    match (Ctype.sizeof p.env ty, ie) with
    | 1, A.Num v -> outi (A.Dbytes (String.make 1 (Char.chr (v land 0xFF))))
    | 1, _ -> errf e.tloc "char initializer must be a plain constant"
    | _, ie -> outi (A.Dword ie)
  in
  List.iter
    (fun g ->
      let size = Ctype.sizeof p.env g.tgtype in
      outi A.Align2;
      outi (A.label (Isolation.mangle ~prefix:p.prefix g.tgname));
      match (g.tginit, g.tgtype) with
      | None, _ -> outi (A.Space size)
      | Some (Ti_expr e), ty -> emit_scalar_init e ty
      | Some (Ti_list es), Ctype.Array (elem, n) ->
        List.iter (fun e -> emit_scalar_init e elem) es;
        let esize = Ctype.sizeof p.env elem in
        let remaining = (n - List.length es) * esize in
        if remaining > 0 then outi (A.Space remaining)
      | Some (Ti_list _), _ -> failwith "brace initializer on non-array"
      | Some (Ti_str s), Ctype.Array (Ctype.Char, n) ->
        outi (A.Dbytes (s ^ "\000"));
        let remaining = n - String.length s - 1 in
        if remaining > 0 then outi (A.Space remaining)
      | Some (Ti_str _), _ -> failwith "string initializer on non-char-array")
    globals;
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Program *)

let fault_stubs prefix =
  List.concat_map
    (fun reason ->
      let l = Isolation.fault_stub_label ~prefix reason in
      [
        A.label l;
        A.mov (A.imm reason) (A.Dabs (A.Num M.sw_fault_port));
        A.jmp l;
      ])
    [
      Isolation.fault_data_lo; Isolation.fault_data_hi;
      Isolation.fault_code_ptr; Isolation.fault_ret_addr;
      Isolation.fault_shadow_stack;
    ]

let gen_program ~prefix ~mode ?(shadow = false)
    ?(classify = fun _ -> Needs_check) ?(loop_bound = fun _ -> None)
    (prog : Tast.program) : output =
  let p =
    {
      prefix; mode; shadow; classify; loop_bound; env = prog.struct_env;
      strings = Hashtbl.create 16; string_counter = 0;
      globals = Hashtbl.create 64; functions = Hashtbl.create 64;
      loops = [];
    }
  in
  List.iter (fun g -> Hashtbl.add p.globals g.tgname g.tgtype) prog.globals;
  List.iter (fun f -> Hashtbl.add p.functions f.tfname ()) prog.funcs;
  let code = ref [] and infos = ref [] in
  List.iter
    (fun f ->
      let items, info = gen_function p f in
      code := !code @ items;
      infos := info :: !infos)
    prog.funcs;
  let code = !code @ fault_stubs prefix in
  let globals_items = gen_globals p prog.globals in
  let string_items =
    Hashtbl.fold
      (fun contents label acc ->
        A.Align2 :: A.label label :: A.Dbytes (contents ^ "\000") :: acc)
      p.strings []
  in
  let handlers =
    List.filter_map
      (fun f ->
        if
          String.length f.tfname >= 7
          && String.sub f.tfname 0 7 = "handle_"
        then Some f.tfname
        else None)
      prog.funcs
  in
  {
    code;
    data = globals_items @ string_items;
    infos = List.rev !infos;
    handlers;
    loops = List.rev p.loops;
  }
