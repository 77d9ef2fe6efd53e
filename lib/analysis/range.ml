(* Value-range analysis over the typed AST.  See range.mli for the
   contract and DESIGN.md for the soundness argument.

   Two interpretations run side by side:

   - [walk]/[stmt]: a flow-sensitive abstract interpreter over the
     scalar locals of one function.  Loops and switches are handled by
     killing every variable assigned inside them, so a single pass is
     a sound over-approximation of all executions.  Its only job is to
     prove sites *unsafe* (every execution out of bounds), which is
     reported eagerly as a compile error.

   - [robust_val]/[robust_addr]: a flow-insensitive evaluator that
     accepts exactly the derivations the binary verifier replays from
     the instruction stream (constants, byte loads, AND masks,
     interval ADD/SUB, power-of-two scaling, OR/XOR ceilings, global
     bases).  Only it may prove a site *safe*: an elided guard must
     survive independent re-verification of the linked image. *)

open Amulet_cc
module C = Ctype

let errf = Srcloc.errf

(* ------------------------------------------------------------------ *)
(* Abstract values *)

type iv = { lo : int; hi : int }

(* [oname] is prefixed with the object kind ("g:", "l:", "s:") so
   same-named locals and globals never unify. *)
type obj = { oname : string; osize : int; oglobal : bool }

(* [Num] ranges hold the signed-16-bit representative of the machine
   word, exactly as Codegen.fold_const normalizes constants; [Ptr]
   offsets are exact byte counts from the object base. *)
type aval = Top | Num of iv | Ptr of obj * iv

let smin = -32768
let smax = 32767
let off_cap = 1 lsl 20

let s16 v =
  let v = v land 0xFFFF in
  if v >= 0x8000 then v - 0x10000 else v

(* Constructors bail to Top when the machine result could wrap: the
   16-bit result is s16 (x mod 2^16), which equals our exact integer
   only while it stays inside the signed range. *)
let num lo hi =
  if lo <= hi && lo >= smin && hi <= smax then Num { lo; hi } else Top

let ptr o lo hi =
  if lo <= hi && abs lo <= off_cap && abs hi <= off_cap then Ptr (o, { lo; hi })
  else Top

let join_iv a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Num x, Num y -> Num (join_iv x y)
  | Ptr (o1, x), Ptr (o2, y) when o1 = o2 -> Ptr (o1, join_iv x y)
  | _ -> Top

(* smallest 2^k - 1 >= h *)
let mask_up h =
  let rec go m = if m >= h then m else go ((2 * m) + 1) in
  if h <= 0 then 0 else go 1

let safe_sizeof env ty =
  try Some (C.sizeof env ty) with Invalid_argument _ -> None

let gobj name osize = { oname = "g:" ^ name; osize; oglobal = true }
let lobj name osize = { oname = "l:" ^ name; osize; oglobal = false }

let sobj s =
  { oname = "s:" ^ s; osize = String.length s + 1; oglobal = true }

let obj_descr o =
  match o.oname.[0] with
  | 's' -> "a string literal"
  | _ -> Printf.sprintf "'%s'" (String.sub o.oname 2 (String.length o.oname - 2))

(* ------------------------------------------------------------------ *)
(* Analysis state *)

type ctx = {
  env : C.env;
  sites : (Srcloc.t, Codegen.site_class) Hashtbl.t;
  loops : (Srcloc.t, int) Hashtbl.t;
      (* loop condition location -> max body executions (WCET) *)
}

type fctx = {
  p : ctx;
  tracked : (string, C.t) Hashtbl.t;  (* scalar locals, address never taken *)
  vals : (string, aval) Hashtbl.t;  (* absent = type default *)
}

(* Byte loads zero-extend, so a char cell always reads as 0..255. *)
let default_of = function
  | C.Char -> Num { lo = 0; hi = 255 }
  | _ -> Top

let get_local f name ty =
  if Hashtbl.mem f.tracked name then
    match Hashtbl.find_opt f.vals name with
    | Some v -> v
    | None -> default_of ty
  else default_of ty

(* What a later load of the cell will see (stores to char truncate). *)
let clamp_store ty v =
  match ty with
  | C.Char -> (
    match v with
    | Num r when r.lo >= 0 && r.hi <= 255 -> v
    | _ -> Num { lo = 0; hi = 255 })
  | _ -> v

let set_local f name ty v =
  if Hashtbl.mem f.tracked name then
    match clamp_store ty v with
    | Top -> Hashtbl.remove f.vals name
    | v -> Hashtbl.replace f.vals name v

let snapshot f = Hashtbl.copy f.vals

let restore f snap =
  Hashtbl.reset f.vals;
  Hashtbl.iter (Hashtbl.replace f.vals) snap

(* Keep only facts valid in both the live environment and [other]; a
   name missing on either side already means "type default". *)
let merge_into f other =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) f.vals [] in
  List.iter
    (fun k ->
      match Hashtbl.find_opt other k with
      | Some v2 -> (
        match join (Hashtbl.find f.vals k) v2 with
        | Top -> Hashtbl.remove f.vals k
        | v -> Hashtbl.replace f.vals k v)
      | None -> Hashtbl.remove f.vals k)
    keys

(* Variables assigned (or ++/--'d, or declared) anywhere inside. *)
let assigned_in stmts exprs =
  let set = Hashtbl.create 8 in
  let add n = Hashtbl.replace set n () in
  let rec root l =
    match l.Tast.te with
    | Tast.Tlocal n -> add n
    | Tast.Tcast (_, i) -> root i
    | _ -> ()
  in
  let scan e =
    Tast.iter_expr
      (fun x ->
        match x.Tast.te with
        | Tast.Tassign (l, _) | Tast.Top_assign (_, l, _) -> root l
        | Tast.Tpre_incr l
        | Tast.Tpre_decr l
        | Tast.Tpost_incr l
        | Tast.Tpost_decr l ->
          root l
        | _ -> ())
      e
  in
  List.iter
    (Tast.iter_stmt ~decl:(fun n _ -> add n) ~expr:scan)
    stmts;
  List.iter scan exprs;
  set

let kill f set = Hashtbl.iter (fun n () -> Hashtbl.remove f.vals n) set

let record f loc cls =
  match Hashtbl.find_opt f.p.sites loc with
  | None -> Hashtbl.replace f.p.sites loc cls
  | Some prev when prev = cls -> ()
  | Some _ -> Hashtbl.replace f.p.sites loc Codegen.Needs_check

let psize env ty =
  (* codegen's pointee_size: void* steps by 1 *)
  match ty with
  | C.Ptr t when t <> C.Void -> safe_sizeof env t
  | C.Ptr C.Void -> Some 1
  | _ -> None

let shift_av v k =
  match v with
  | Top -> Top
  | Num r -> num (r.lo + k) (r.hi + k)
  | Ptr (o, r) -> ptr o (r.lo + k) (r.hi + k)

let add_scaled base idx es =
  match (base, idx, es) with
  | Top, _, _ | _, Top, _ | _, _, None -> Top
  | Ptr (o, r), Num i, Some s -> ptr o (r.lo + (i.lo * s)) (r.hi + (i.hi * s))
  | Num a, Num b, Some s -> num (a.lo + (b.lo * s)) (a.hi + (b.hi * s))
  | _ -> Top

(* ------------------------------------------------------------------ *)
(* Robust evaluation: only derivations the binary verifier replays *)

type rv = Rnum of iv | Rptr of obj * iv

(* Robust numbers are unsigned machine intervals: the verifier's
   register domain has no signed values. *)
let rnum lo hi =
  if 0 <= lo && lo <= hi && hi <= 0xFFFF then Some (Rnum { lo; hi }) else None

let rshift r k = { lo = r.lo + k; hi = r.hi + k }

let pow2ish = function 1 -> true | n -> Codegen.log2_exact n <> None

let rec robust_val ctx (e : Tast.texpr) : rv option =
  match e.Tast.te with
  (* char-typed memory reads compile to zero-extending byte loads *)
  | Tast.Tlocal _ | Tast.Tglobal _ | Tast.Tderef _ | Tast.Tindex _
  | Tast.Tmember _ | Tast.Tarrow _
    when e.Tast.ty = C.Char ->
    Some (Rnum { lo = 0; hi = 255 })
  | Tast.Tnum n ->
    let v = s16 n in
    if v >= 0 then Some (Rnum { lo = v; hi = v }) else None
  | Tast.Tstr s -> Some (Rptr (sobj s, { lo = 0; hi = 0 }))
  | Tast.Taddr inner -> robust_addr ctx inner
  | Tast.Tassign (_, r) -> robust_val ctx r
  (* a cast to char emits AND #0xFF *)
  | Tast.Tcast (C.Char, _) -> Some (Rnum { lo = 0; hi = 255 })
  | Tast.Tcast (_, a) -> robust_val ctx a
  | Tast.Tbin (op, a, b) -> robust_bin ctx op a b
  | _ -> None

and robust_bin ctx op a b =
  match op with
  | Ast.Band -> (
    (* AND bounds the result by either operand's nonnegative range,
       whatever the other side holds *)
    let bound x =
      match robust_val ctx x with Some (Rnum r) -> Some r.hi | _ -> None
    in
    match (bound a, bound b) with
    | Some x, Some y -> rnum 0 (min x y)
    | Some x, None | None, Some x -> rnum 0 x
    | None, None -> None)
  | Ast.Add -> (
    match (robust_val ctx a, robust_val ctx b) with
    | Some (Rnum x), Some (Rnum y) -> rnum (x.lo + y.lo) (x.hi + y.hi)
    | Some (Rptr (o, r)), Some (Rnum i) when C.is_pointer a.Tast.ty -> (
      (* pointer + int scales the index; only power-of-two scaling
         compiles to ADD doubling the verifier can follow *)
      match psize ctx.env a.Tast.ty with
      | Some s when pow2ish s ->
        Some (Rptr (o, { lo = r.lo + (i.lo * s); hi = r.hi + (i.hi * s) }))
      | _ -> None)
    | _ -> None)
  | Ast.Sub -> (
    match (robust_val ctx a, robust_val ctx b) with
    | Some (Rnum x), Some (Rnum y) -> rnum (x.lo - y.hi) (x.hi - y.lo)
    | _ -> None)
  | Ast.Mul -> (
    (* only [expr * 2^k] compiles to ADD doubling *)
    match Codegen.fold_const b with
    | Some k when k > 0 && pow2ish k -> (
      match robust_val ctx a with
      | Some (Rnum x) -> rnum (x.lo * k) (x.hi * k)
      | _ -> None)
    | _ -> None)
  | Ast.Shl -> (
    match Codegen.fold_const b with
    | Some k -> (
      let k = k land 15 in
      match robust_val ctx a with
      | Some (Rnum x) -> rnum (x.lo lsl k) (x.hi lsl k)
      | _ -> None)
    | None -> None)
  | Ast.Bor | Ast.Bxor -> (
    match (robust_val ctx a, robust_val ctx b) with
    | Some (Rnum x), Some (Rnum y) -> rnum 0 (mask_up (max x.hi y.hi))
    | _ -> None)
  | _ -> None

and robust_addr ctx (e : Tast.texpr) : rv option =
  match e.Tast.te with
  | Tast.Tglobal g -> (
    match safe_sizeof ctx.env e.Tast.ty with
    | Some sz -> Some (Rptr (gobj g sz, { lo = 0; hi = 0 }))
    | None -> None)
  | Tast.Tstr s -> Some (Rptr (sobj s, { lo = 0; hi = 0 }))
  | Tast.Tderef p -> robust_val ctx p
  | Tast.Tarrow (p, fld) -> (
    match robust_val ctx p with
    | Some (Rptr (o, r)) -> Some (Rptr (o, rshift r fld.C.foffset))
    | _ -> None)
  | Tast.Tmember (b, fld) -> (
    match robust_addr ctx b with
    | Some (Rptr (o, r)) -> Some (Rptr (o, rshift r fld.C.foffset))
    | _ -> None)
  | Tast.Tindex (base, idx) -> (
    match safe_sizeof ctx.env e.Tast.ty with
    | None -> None
    | Some es -> (
      let scaled o r i =
        if pow2ish es then
          Some (Rptr (o, { lo = r.lo + (i.lo * es); hi = r.hi + (i.hi * es) }))
        else None
      in
      match (base.Tast.ty, Codegen.fold_const idx) with
      | C.Array _, Some k -> (
        match robust_addr ctx base with
        | Some (Rptr (o, r)) -> Some (Rptr (o, rshift r (k * es)))
        | _ -> None)
      | C.Array _, None -> (
        match (robust_val ctx idx, robust_addr ctx base) with
        | Some (Rnum i), Some (Rptr (o, r)) -> scaled o r i
        | _ -> None)
      | _ -> (
        (* pointer indexing: p[i] *)
        match (robust_val ctx base, robust_val ctx idx) with
        | Some (Rptr (o, r)), Some (Rnum i) -> scaled o r i
        | _ -> None)))
  | Tast.Tcast (_, inner) -> robust_addr ctx inner
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Site judgment *)

(* [pav]: flow-sensitive final address; [e]: the whole place
   expression for the robust re-derivation.  The guard (and therefore
   its elision) covers the final address after all member/index
   offsets, which is why judgment happens at the outermost place even
   though [loc] names the innermost computed-address node (where
   codegen creates the Pdyn and consults the classifier). *)
let judge f loc ty pav (e : Tast.texpr) =
  match safe_sizeof f.p.env ty with
  | None -> record f loc Codegen.Needs_check
  | Some w ->
    (match pav with
    | Ptr (o, r) ->
      let vhi = o.osize - w in
      if vhi < 0 || r.hi < 0 || r.lo > vhi then
        errf loc "access is provably out of bounds: byte offset %s of %d-byte object %s"
          (if r.lo = r.hi then string_of_int r.lo
           else Printf.sprintf "%d..%d" r.lo r.hi)
          o.osize (obj_descr o)
    | _ -> ());
    let cls =
      (* elide only accesses into *global* objects: their section
         placement is what the guard checks and what the verifier can
         re-establish from the image symbols *)
      match robust_addr f.p e with
      | Some (Rptr (o, r))
        when o.oglobal && r.lo >= 0 && r.hi <= o.osize - w ->
        Codegen.Proven_safe
      | _ -> Codegen.Needs_check
    in
    record f loc cls

(* ------------------------------------------------------------------ *)
(* Flow-sensitive walk (mirrors codegen's evaluation order) *)

type paddr = { pav : aval; psite : (Srcloc.t * C.t) option }

let rec walk f (e : Tast.texpr) : aval =
  match e.Tast.te with
  | Tast.Tnum n ->
    let v = s16 n in
    Num { lo = v; hi = v }
  | Tast.Tstr s -> Ptr (sobj s, { lo = 0; hi = 0 })
  | Tast.Tlocal name -> get_local f name e.Tast.ty
  | Tast.Tglobal _ | Tast.Tfunc_name _ -> default_of e.Tast.ty
  | Tast.Tbin (op, a, b) -> walk_bin f op a b
  | Tast.Tun (op, a) -> (
    let v = walk f a in
    match op with
    | Ast.Lnot -> Num { lo = 0; hi = 1 }
    | Ast.Neg -> ( match v with Num r -> num (-r.hi) (-r.lo) | _ -> Top)
    | Ast.Bnot -> (
      match v with Num r -> num (-1 - r.hi) (-1 - r.lo) | _ -> Top))
  | Tast.Tassign (lhs, rhs) ->
    (* codegen: rhs first, then the place; result is the rhs register
       (untruncated even for char stores) *)
    let v = walk f rhs in
    assign_to f lhs v;
    v
  | Tast.Top_assign (op, lhs, rhs) ->
    (* codegen: place (guard discharged), load, then rhs *)
    let old = read_place f lhs in
    let v = walk f rhs in
    let nv = transfer f.p.env op lhs.Tast.ty rhs.Tast.ty old v in
    set_root f lhs nv;
    nv
  | Tast.Tcond (cnd, t, fb) ->
    let _ = walk f cnd in
    let pre = snapshot f in
    let vt = walk f t in
    let post_t = snapshot f in
    restore f pre;
    let vf = walk f fb in
    merge_into f post_t;
    join vt vf
  | Tast.Tcall (name, args) ->
    let ordered =
      (* API calls load R12-R14 left to right; plain calls push
         right to left *)
      if Amulet_cc.Apis.find name <> None then args else List.rev args
    in
    List.iter (fun a -> ignore (walk f a)) ordered;
    default_of e.Tast.ty
  | Tast.Tcall_ptr (callee, args) ->
    let _ = walk f callee in
    List.iter (fun a -> ignore (walk f a)) (List.rev args);
    default_of e.Tast.ty
  | Tast.Tindex _ | Tast.Tderef _ | Tast.Tmember _ | Tast.Tarrow _ ->
    let _ = consume f e ~addr_of:false in
    default_of e.Tast.ty
  | Tast.Taddr inner ->
    (* address is computed but nothing is dereferenced: no site *)
    consume f inner ~addr_of:true
  | Tast.Tpre_incr a | Tast.Tpre_decr a | Tast.Tpost_incr a | Tast.Tpost_decr a
    ->
    let post =
      match e.Tast.te with
      | Tast.Tpost_incr _ | Tast.Tpost_decr _ -> true
      | _ -> false
    in
    let sign =
      match e.Tast.te with
      | Tast.Tpre_decr _ | Tast.Tpost_decr _ -> -1
      | _ -> 1
    in
    let old = read_place f a in
    let step =
      if C.is_pointer a.Tast.ty then psize f.p.env a.Tast.ty else Some 1
    in
    let nv =
      match (old, step) with
      | Num r, Some s -> num (r.lo + (s * sign)) (r.hi + (s * sign))
      | Ptr (o, r), Some s -> ptr o (r.lo + (s * sign)) (r.hi + (s * sign))
      | _ -> Top
    in
    set_root f a nv;
    if post then old else nv
  | Tast.Tcast (ty, a) -> (
    let v = walk f a in
    match ty with
    | C.Char ->
      if a.Tast.ty = C.Char then v
      else (
        (* AND #0xFF *)
        match v with
        | Num r when r.lo >= 0 && r.hi <= 255 -> v
        | _ -> Num { lo = 0; hi = 255 })
    | _ -> v)

and walk_bin f op a b =
  match op with
  | Ast.Land | Ast.Lor ->
    let _ = walk f a in
    let pre = snapshot f in
    let _ = walk f b in
    (* b may be skipped *)
    merge_into f pre;
    Num { lo = 0; hi = 1 }
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge ->
    let _ = walk f a in
    let _ = walk f b in
    Num { lo = 0; hi = 1 }
  | _ ->
    let va = walk f a in
    let vb = walk f b in
    transfer f.p.env op a.Tast.ty b.Tast.ty va vb

and transfer env op tyl tyr va vb =
  let signed = tyl = C.Int && tyr = C.Int in
  match (op, va, vb) with
  | Ast.Add, Ptr (o, r), Num i when C.is_pointer tyl ->
    add_scaled (Ptr (o, r)) (Num i) (psize env tyl)
  | Ast.Sub, Ptr (o, r), Num i when C.is_pointer tyl && C.is_integer tyr -> (
    match psize env tyl with
    | Some s -> ptr o (r.lo - (i.hi * s)) (r.hi - (i.lo * s))
    | None -> Top)
  | Ast.Add, Num x, Num y -> num (x.lo + y.lo) (x.hi + y.hi)
  | Ast.Sub, Num x, Num y -> num (x.lo - y.hi) (x.hi - y.lo)
  | Ast.Mul, Num x, Num y ->
    let ps = [ x.lo * y.lo; x.lo * y.hi; x.hi * y.lo; x.hi * y.hi ] in
    num (List.fold_left min max_int ps) (List.fold_left max min_int ps)
  | Ast.Div, Num x, Num y when y.lo = y.hi && y.lo > 0 && x.lo >= 0 ->
    num (x.lo / y.lo) (x.hi / y.lo)
  | Ast.Mod, Num x, Num y when y.lo = y.hi && y.lo > 0 ->
    let d = y.lo in
    if x.lo >= 0 then num 0 (min (d - 1) x.hi)
    else if signed then num (-(d - 1)) (d - 1)
    else num 0 (d - 1)
  | Ast.Band, Num x, Num y ->
    if x.lo >= 0 && y.lo >= 0 then num 0 (min x.hi y.hi)
    else if x.lo >= 0 then num 0 x.hi
    else if y.lo >= 0 then num 0 y.hi
    else Top
  | (Ast.Bor | Ast.Bxor), Num x, Num y when x.lo >= 0 && y.lo >= 0 ->
    num 0 (mask_up (max x.hi y.hi))
  | Ast.Shl, Num x, Num y when y.lo = y.hi ->
    let k = y.lo land 15 in
    num (x.lo lsl k) (x.hi lsl k)
  | Ast.Shr, Num x, Num y when y.lo = y.hi && x.lo >= 0 ->
    let k = y.lo land 15 in
    num (x.lo asr k) (x.hi asr k)
  | _ -> Top

and consume f (e : Tast.texpr) ~addr_of : aval =
  let pa = walk_place f e in
  (match pa.psite with
  | Some (loc, ty) when not addr_of -> judge f loc ty pa.pav e
  | _ -> ());
  pa.pav

and read_place f (lhs : Tast.texpr) : aval =
  match lhs.Tast.te with
  | Tast.Tlocal name -> get_local f name lhs.Tast.ty
  | Tast.Tcast (_, inner) -> read_place f inner
  | _ ->
    let _ = consume f lhs ~addr_of:false in
    default_of lhs.Tast.ty

and assign_to f (lhs : Tast.texpr) v =
  match lhs.Tast.te with
  | Tast.Tlocal name -> set_local f name lhs.Tast.ty v
  | Tast.Tcast (_, inner) -> assign_to f inner v
  | _ -> ignore (consume f lhs ~addr_of:false)

(* Update after Top_assign/++/-- where the place was already walked. *)
and set_root f (lhs : Tast.texpr) v =
  match lhs.Tast.te with
  | Tast.Tlocal name -> set_local f name lhs.Tast.ty v
  | Tast.Tcast (_, inner) -> set_root f inner v
  | _ -> ()

and walk_place f (e : Tast.texpr) : paddr =
  match e.Tast.te with
  | Tast.Tlocal name ->
    let pav =
      match safe_sizeof f.p.env e.Tast.ty with
      | Some sz -> Ptr (lobj name sz, { lo = 0; hi = 0 })
      | None -> Top
    in
    { pav; psite = None }
  | Tast.Tglobal name ->
    let pav =
      match safe_sizeof f.p.env e.Tast.ty with
      | Some sz -> Ptr (gobj name sz, { lo = 0; hi = 0 })
      | None -> Top
    in
    { pav; psite = None }
  | Tast.Tstr s -> { pav = Ptr (sobj s, { lo = 0; hi = 0 }); psite = None }
  | Tast.Tderef p ->
    { pav = walk f p; psite = Some (e.Tast.tloc, e.Tast.ty) }
  | Tast.Tarrow (p, fld) ->
    let v = walk f p in
    { pav = shift_av v fld.C.foffset; psite = Some (e.Tast.tloc, fld.C.ftype) }
  | Tast.Tmember (b, fld) ->
    (* codegen propagates the base's pending check through the member
       offset, so a site inherited from the base keeps its location
       but now covers the shifted address *)
    let pb = walk_place f b in
    {
      pav = shift_av pb.pav fld.C.foffset;
      psite =
        (match pb.psite with
        | Some (l, _) -> Some (l, fld.C.ftype)
        | None -> None);
    }
  | Tast.Tindex (base, idx) -> walk_index_place f e base idx
  | Tast.Tcast (_, inner) -> walk_place f inner
  | _ ->
    (* not an lvalue: codegen rejects this; walk for effects only *)
    let _ = walk f e in
    { pav = Top; psite = None }

and walk_index_place f e base idx =
  let elem_ty = e.Tast.ty in
  let es = safe_sizeof f.p.env elem_ty in
  match (base.Tast.ty, Codegen.fold_const idx) with
  | C.Array _, Some k ->
    (* codegen verifies constant indexes into arrays statically and
       reports its own error when one is out of range: no site here *)
    let pb = walk_place f base in
    let pav =
      match es with Some s -> shift_av pb.pav (k * s) | None -> Top
    in
    {
      pav;
      psite =
        (match pb.psite with
        | Some (l, _) -> Some (l, elem_ty)
        | None -> None);
    }
  | C.Array _, None ->
    (* codegen: index value first, then the base place *)
    let vi = walk f idx in
    let pb = walk_place f base in
    let pav = add_scaled pb.pav vi es in
    let psite =
      match pb.psite with
      | Some (l, _) -> Some (l, elem_ty)
      | None -> Some (e.Tast.tloc, elem_ty)
    in
    { pav; psite }
  | _ ->
    (* pointer indexing: base value first, then the index *)
    let vb = walk f base in
    let vi = walk f idx in
    { pav = add_scaled vb vi es; psite = Some (e.Tast.tloc, elem_ty) }

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec stmt f (s : Tast.tstmt) : unit =
  match s with
  | Tast.Tsexpr e -> ignore (walk f e)
  | Tast.Tsdecl (name, ty, init) -> (
    match init with
    | Some (Tast.Ti_expr e) ->
      let v = walk f e in
      set_local f name ty v
    | Some (Tast.Ti_list es) ->
      List.iter (fun e -> ignore (walk f e)) es;
      Hashtbl.remove f.vals name
    | Some (Tast.Ti_str _) | None -> Hashtbl.remove f.vals name)
  | Tast.Tsif (c, a, b) ->
    ignore (walk f c);
    let pre = snapshot f in
    List.iter (stmt f) a;
    let post_a = snapshot f in
    restore f pre;
    List.iter (stmt f) b;
    merge_into f post_a
  | Tast.Tswhile (c, body) -> loop f ~cond:(Some c) ~pre_cond:true ~body ~step:None
  | Tast.Tsdo_while (body, c) ->
    loop f ~cond:(Some c) ~pre_cond:false ~body ~step:None
  | Tast.Tsfor (init, c, st, body) ->
    Option.iter (stmt f) init;
    loop f ~cond:c ~pre_cond:true ~body ~step:st
  | Tast.Tsreturn e -> Option.iter (fun e -> ignore (walk f e)) e
  | Tast.Tsbreak | Tast.Tscontinue -> ()
  | Tast.Tsswitch (e, cases, default) ->
    ignore (walk f e);
    let bodies = List.map snd cases @ Option.to_list default in
    let ks = assigned_in (List.concat bodies) [] in
    kill f ks;
    (* every case (and fallthrough) starts from the killed entry
       state, which over-approximates all paths into it *)
    let entry = snapshot f in
    List.iter
      (fun b ->
        restore f entry;
        List.iter (stmt f) b)
      bodies;
    restore f entry
  | Tast.Tsblock body -> List.iter (stmt f) body

(* ------------------------------------------------------------------ *)
(* Loop iteration bounds (for the WCET certifier).

   A loop gets a bound only when it is a plain counted loop the
   abstract state can decide from the entry environment:

   - the condition compares a tracked scalar local [i] against a
     constant ([i < K], [K > i], ...);
   - [i] is modified at exactly one site in the whole loop (body,
     step and condition together), that site is a top-level statement
     of the body or the [for] step — so it executes on every
     iteration — and it adds or subtracts a nonzero constant;
   - the body contains no [continue] binding to this loop (it could
     skip a body-level update);
   - the iteration sequence provably cannot wrap around 16 bits
     before the exit test fails (signedness follows codegen's rule:
     both operands [int] compares signed, anything else unsigned).

   The recorded value B is the maximum number of *body executions*
   per loop entry; the binary-side analysis charges B+1 executions of
   the header block to also cover the final failing test of
   while-style loops.  Everything else simply records no bound and
   the handler degrades to [Unbounded]. *)

and count_writes name e =
  let n = ref 0 in
  let rec root l =
    match l.Tast.te with
    | Tast.Tlocal m -> if m = name then incr n
    | Tast.Tcast (_, i) -> root i
    | _ -> ()
  in
  Tast.iter_expr
    (fun x ->
      match x.Tast.te with
      | Tast.Tassign (l, _) | Tast.Top_assign (_, l, _) -> root l
      | Tast.Tpre_incr l
      | Tast.Tpre_decr l
      | Tast.Tpost_incr l
      | Tast.Tpost_decr l ->
        root l
      | _ -> ())
    e;
  !n

(* [continue] statements binding to the current loop: recurse through
   if/block/switch but not into nested loops (their [continue]s bind
   there). *)
and has_own_continue stmts =
  List.exists
    (fun s ->
      match s with
      | Tast.Tscontinue -> true
      | Tast.Tsif (_, a, b) -> has_own_continue a || has_own_continue b
      | Tast.Tsblock b -> has_own_continue b
      | Tast.Tsswitch (_, cases, default) ->
        List.exists (fun (_, b) -> has_own_continue b) cases
        || (match default with Some b -> has_own_continue b | None -> false)
      | _ -> false)
    stmts

(* Recognize [e] as the canonical update of [name]: returns the signed
   step added per execution. *)
and update_step name (e : Tast.texpr) =
  let is_i x = match x.Tast.te with Tast.Tlocal m -> m = name | _ -> false in
  match e.Tast.te with
  | Tast.Tassign (l, r) when is_i l -> (
    match r.Tast.te with
    | Tast.Tbin (Ast.Add, a, b) when is_i a -> Codegen.fold_const b
    | Tast.Tbin (Ast.Add, a, b) when is_i b -> Codegen.fold_const a
    | Tast.Tbin (Ast.Sub, a, b) when is_i a ->
      Option.map (fun k -> -k) (Codegen.fold_const b)
    | _ -> None)
  | Tast.Top_assign (Ast.Add, l, r) when is_i l -> Codegen.fold_const r
  | Tast.Top_assign (Ast.Sub, l, r) when is_i l ->
    Option.map (fun k -> -k) (Codegen.fold_const r)
  | (Tast.Tpre_incr l | Tast.Tpost_incr l) when is_i l -> Some 1
  | (Tast.Tpre_decr l | Tast.Tpost_decr l) when is_i l -> Some (-1)
  | _ -> None

(* Max body executions for entry value in [elo, ehi], condition
   [i op K] tested before ([pre]) or after each body execution, [i]
   stepped by [s] per execution.  [None] when the sequence could wrap
   16 bits before the test fails or the shape is out of scope. *)
and iter_bound ~signed ~pre op k s (elo, ehi) =
  let ceil_div a b = (a + b - 1) / b in
  let lo_rep, hi_rep = if signed then (smin, smax) else (0, 0xFFFF) in
  (* unsigned compares see the 16-bit value, not the signed
     representative *)
  let k = if signed then k else k land 0xFFFF in
  if (not signed) && elo < 0 then None
  else if elo < lo_rep || ehi > hi_rep then None
  else
    let pre_bound () =
      match op with
      | Ast.Lt when s > 0 ->
        if k <= elo then Some 0
        else if k - 1 + s <= hi_rep then Some (ceil_div (k - elo) s)
        else None
      | Ast.Le when s > 0 ->
        if elo > k then Some 0
        else if k + s <= hi_rep then Some (((k - elo) / s) + 1)
        else None
      | Ast.Gt when s < 0 ->
        let d = -s in
        if ehi <= k then Some 0
        else if k + 1 - d >= lo_rep then Some (ceil_div (ehi - k) d)
        else None
      | Ast.Ge when s < 0 ->
        let d = -s in
        if ehi < k then Some 0
        else if k - d >= lo_rep then Some (((ehi - k) / d) + 1)
        else None
      | Ast.Ne when s = 1 && elo = ehi && elo <= k -> Some (k - elo)
      | Ast.Ne when s = -1 && elo = ehi && elo >= k -> Some (elo - k)
      | _ -> None
    in
    if pre then pre_bound ()
    else
      (* post-test (do-while): the body runs once before the first
         test, and the first update must itself not wrap *)
      let first_ok =
        if s > 0 then ehi + s <= hi_rep else elo + s >= lo_rep
      in
      if not first_ok then None
      else
        match op with
        | Ast.Ne ->
          (* the exit test must actually be reachable after >= 1 body
             execution: require strict inequality at entry *)
          if s = 1 && elo = ehi && elo < k then Some (k - elo)
          else if s = -1 && elo = ehi && elo > k then Some (elo - k)
          else None
        | _ -> Option.map (fun b -> b + 1) (pre_bound ())

and infer_loop_bound f ~cond ~pre_cond ~body ~step =
  match cond with
  | None -> ()
  | Some c -> (
    let mirror = function
      | Ast.Lt -> Ast.Gt
      | Ast.Le -> Ast.Ge
      | Ast.Gt -> Ast.Lt
      | Ast.Ge -> Ast.Le
      | op -> op
    in
    let shape =
      match c.Tast.te with
      | Tast.Tbin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Ne) as op), a, b)
        -> (
        let signed = a.Tast.ty = C.Int && b.Tast.ty = C.Int in
        match (a.Tast.te, Codegen.fold_const b) with
        | Tast.Tlocal i, Some k -> Some (i, a.Tast.ty, op, k, signed)
        | _ -> (
          match (Codegen.fold_const a, b.Tast.te) with
          | Some k, Tast.Tlocal i -> Some (i, b.Tast.ty, mirror op, k, signed)
          | _ -> None))
      | _ -> None
    in
    match shape with
    | None -> ()
    | Some (i, ity, op, k, signed) ->
      if Hashtbl.mem f.tracked i && not (has_own_continue body) then begin
        (* exactly one modification of [i], guaranteed every iteration *)
        let in_cond = count_writes i c in
        let in_step =
          match step with Some st -> count_writes i st | None -> 0
        in
        let in_body =
          let n = ref 0 in
          List.iter
            (Tast.iter_stmt
               ~decl:(fun _ _ -> ())
               ~expr:(fun e -> n := !n + count_writes i e))
            body;
          !n
        in
        let shadowed =
          let sh = ref false in
          List.iter
            (Tast.iter_stmt
               ~decl:(fun n _ -> if n = i then sh := true)
               ~expr:(fun _ -> ()))
            body;
          !sh
        in
        let site_step =
          if shadowed || in_cond > 0 || in_body + in_step <> 1 then None
          else if in_step = 1 then Option.bind step (update_step i)
          else
            (* the single body write must be a whole top-level
               statement, so it executes on every iteration *)
            List.find_map
              (function
                | Tast.Tsexpr e when count_writes i e = 1 -> update_step i e
                | _ -> None)
              body
        in
        match site_step with
        | Some s when s <> 0 -> (
          match get_local f i ity with
          | Num r -> (
            match iter_bound ~signed ~pre:pre_cond op k s (r.lo, r.hi) with
            | Some b ->
              let prev = Hashtbl.find_opt f.p.loops c.Tast.tloc in
              if match prev with Some p -> b > p | None -> true then
                Hashtbl.replace f.p.loops c.Tast.tloc b
            | None -> ())
          | _ -> ())
        | _ -> ()
      end)

(* One pass is sound because everything assigned inside the loop is
   first killed to its type default: the entry state is then an
   invariant of every iteration. *)
and loop f ~cond ~pre_cond ~body ~step =
  (* bound inference reads the entry value of the induction variable,
     so it must run before the kill *)
  infer_loop_bound f ~cond ~pre_cond ~body ~step;
  let ks = assigned_in body (Option.to_list cond @ Option.to_list step) in
  kill f ks;
  let entry = snapshot f in
  if pre_cond then Option.iter (fun c -> ignore (walk f c)) cond;
  List.iter (stmt f) body;
  Option.iter (fun st -> ignore (walk f st)) step;
  if not pre_cond then Option.iter (fun c -> ignore (walk f c)) cond;
  restore f entry

(* ------------------------------------------------------------------ *)
(* Entry point *)

let do_func ctx (fn : Tast.tfunc) =
  let tracked = Hashtbl.create 16 in
  let add_decl name ty = if C.is_scalar ty then Hashtbl.replace tracked name ty in
  List.iter (fun (n, t) -> add_decl n t) fn.Tast.tfparams;
  List.iter
    (Tast.iter_stmt ~decl:add_decl ~expr:(fun _ -> ()))
    fn.Tast.tfbody;
  (* an address-taken local can change through any store: untrack it *)
  let untrack e =
    match e.Tast.te with
    | Tast.Taddr inner ->
      let rec root l =
        match l.Tast.te with
        | Tast.Tlocal n -> Hashtbl.remove tracked n
        | Tast.Tindex (b, _) | Tast.Tmember (b, _) -> root b
        | Tast.Tcast (_, i) -> root i
        | _ -> ()
      in
      root inner
    | _ -> ()
  in
  List.iter
    (Tast.iter_stmt ~decl:(fun _ _ -> ()) ~expr:(Tast.iter_expr untrack))
    fn.Tast.tfbody;
  let f = { p = ctx; tracked; vals = Hashtbl.create 16 } in
  List.iter (stmt f) fn.Tast.tfbody

let run_pass (prog : Tast.program) =
  let ctx =
    {
      env = prog.Tast.struct_env;
      sites = Hashtbl.create 64;
      loops = Hashtbl.create 16;
    }
  in
  List.iter (do_func ctx) prog.Tast.funcs;
  ctx

let analyze (prog : Tast.program) : Codegen.classifier =
  let ctx = run_pass prog in
  fun loc ->
    match Hashtbl.find_opt ctx.sites loc with
    | Some cls -> cls
    | None -> Codegen.Needs_check

let loop_bounds (prog : Tast.program) : Srcloc.t -> int option =
  let ctx = run_pass prog in
  fun loc -> Hashtbl.find_opt ctx.loops loc
