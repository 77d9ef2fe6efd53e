(* Gate-argument provenance.

   The kernel's API dispatcher re-validates every pointer argument an
   app passes through an OS gate ([Api.dispatch]'s [with_range]): the
   whole range [addr, addr+len) must lie inside the app's writable
   region.  This pass proves, per call site, that the pointer can only
   ever point into the app's own D_i region — for any execution
   reaching the site — so the kernel may elide that dynamic check for
   the certified services of a certified image.

   The analysis is a per-function abstract interpretation over the
   CFI-reconstructed CFG with a three-point domain per register:

   - [Iv (l, h)]  — an unsigned 16-bit interval (link-time constants:
     global and string addresses, literal lengths);
   - [Fp (dl, dh)] — frame-relative: FP + a signed displacement
     interval (addresses of locals);
   - [Top]        — anything (loads, helper results, arguments).

   An [Iv] pointer certifies directly against the [data__start,
   data__end) symbols.  An [Fp] pointer needs a bound on FP itself:
   {!Stackcert}'s per-function entry-depth maximum pins FP between
   [stack_top - entry_max - 2] and [stack_top - trampoline - 2], which
   only exists in separate-stack modes — with a shared stack the
   frame's location is not statically boundable, and such sites stay
   uncertified (the dynamic check remains).

   The extent validated by the kernel is over-approximated from the
   abstract length argument by the service's declared pointer shape
   ({!Amulet_cc.Apis.extent}), the same declaration the kernel clamps
   with (e.g. [api_read_accel] validates at most 128 bytes). *)

module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module Iso = Amulet_cc.Isolation
module Apis = Amulet_cc.Apis

type value = Top | Iv of int * int | Fp of int * int

type site = {
  gs_fn : string;  (** mangled name of the enclosing function *)
  gs_addr : int;  (** address of the CALL #__gate_* instruction *)
  gs_service : string;
  gs_certified : bool;
  gs_reason : string;
}

type t = {
  gt_sites : site list;
  gt_certified : string list;
      (** services every one of whose pointer-carrying call sites is
          certified (and that have at least one such site) *)
}

(* signed view of an unsigned interval; None when it spans the sign
   boundary *)
let signed_iv l h =
  let sl = W.to_signed W.W16 l and sh = W.to_signed W.W16 h in
  if sl <= sh then Some (sl, sh) else None

let join_value a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Iv (l1, h1), Iv (l2, h2) -> Iv (min l1 l2, max h1 h2)
  | Fp (l1, h1), Fp (l2, h2) -> Fp (min l1 l2, max h1 h2)
  | _ -> Top

let add_value a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) ->
    if h1 + h2 <= 0xFFFF then Iv (l1 + l2, h1 + h2) else Top
  | Fp (dl, dh), Iv (l, h) | Iv (l, h), Fp (dl, dh) -> (
    match signed_iv l h with
    | Some (sl, sh) -> Fp (dl + sl, dh + sh)
    | None -> Top)
  | _ -> Top

let sub_value a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) -> if l1 - h2 >= 0 then Iv (l1 - h2, h1 - l2) else Top
  | Fp (dl, dh), Iv (l, h) -> (
    match signed_iv l h with
    | Some (sl, sh) -> Fp (dl - sh, dh - sl)
    | None -> Top)
  | _ -> Top

let src_value regs width src =
  match src with
  | O.S_immediate k ->
    let m = match width with W.W8 -> k land 0xFF | W.W16 -> k land 0xFFFF in
    Iv (m, m)
  | O.S_reg s -> regs.(s)
  | _ -> Top (* memory loads *)

(* A byte-width write clears the register's high byte. *)
let byte_clamp width v =
  match width with
  | W.W16 -> v
  | W.W8 -> (
    match v with Iv (l, h) when 0 <= l && h <= 0xFF -> v | _ -> Iv (0, 0xFF))

(* Every register the instruction writes becomes Top, except a
   register destination whose new value the domain models. *)
let step regs (i : Cfi.insn) =
  let op = i.Cfi.i_op in
  let dst, v =
    match op with
    | O.Fmt1 (op2, w, src, O.D_reg d) ->
      let sv = src_value regs w src in
      let nv =
        match op2 with
        | O.MOV -> (
          match src with
          (* the prologue's MOV SP, R4 establishes the frame pointer —
             the reference point of every Fp value *)
          | O.S_reg 1 -> if d = 4 then Fp (0, 0) else Top
          | _ -> sv)
        | O.ADD -> add_value regs.(d) sv
        | O.SUB -> sub_value regs.(d) sv
        | O.AND -> (
          match src with O.S_immediate k -> Iv (0, k land 0xFFFF) | _ -> Top)
        | _ -> Top
      in
      (d, byte_clamp w nv)
    | _ -> (-1, Top)
  in
  let written = O.writes op in
  for r = 0 to 15 do
    if written land (1 lsl r) <> 0 then regs.(r) <- (if r = dst then v else Top)
  done;
  match op with
  | O.Fmt2 (O.CALL, _, _) ->
    (* caller-saved registers die across any call *)
    for r = 12 to 15 do
      regs.(r) <- Top
    done
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-function fixpoint *)

(* Intervals can keep growing around a loop; past the limit every
   still-changing register becomes Top. *)
let widen_limit = 8

let fixpoint (f : Cfi.func) : (int, value array) Hashtbl.t =
  let block_of = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_of b.Cfi.b_addr b) f.Cfi.f_blocks;
  let transfer a st =
    match Hashtbl.find_opt block_of a with
    | None -> []
    | Some b ->
      let regs = Array.copy st in
      List.iter (fun i -> step regs i) b.Cfi.b_insns;
      List.map (fun (t, _) -> (t, regs)) b.Cfi.b_succs
  in
  let widen _ ~joins ~old j =
    if joins > widen_limit then
      Array.init 16 (fun r -> if j.(r) = old.(r) then old.(r) else Top)
    else j
  in
  Fixpoint.solve
    ~join:(fun old st -> Array.init 16 (fun r -> join_value old.(r) st.(r)))
    ~equal:( = ) ~widen ~transfer
    [ (f.Cfi.f_entry, Array.make 16 Top) ]

(* ------------------------------------------------------------------ *)
(* Certification *)

(* The service's pointer is R12, its first argument; its extent depends
   on R13 only through an upper bound that is non-negative as a signed
   word. *)
let certify_arg (sec : Section.t) ~sep stack fname pointer regs =
  let ext =
    Apis.extent pointer
      (match regs.(13) with Iv (_, h) when h <= 0x7FFF -> Some h | _ -> None)
  in
  match regs.(12) with
  | Top -> (false, "arg 0: provenance unknown")
  | Iv (l, h) ->
    if l >= sec.Section.data_lo && h + ext <= sec.Section.data_hi then
      (true, Printf.sprintf "arg 0: [%04X,%04X]+%d within the D region" l h ext)
    else
      (false, Printf.sprintf "arg 0: [%04X,%04X]+%d escapes the D region" l h ext)
  | Fp (dl, dh) -> (
    if not sep then (false, "arg 0: frame-relative with a shared stack")
    else
      match (sec.Section.stack_top, Stackcert.entry_max_of stack fname) with
      | Some top, Some em ->
        (* FP = entry SP - 2 (saved FP), and the entry SP sits between
           [stack_top - entry_max] and [stack_top - trampoline] *)
        let fp_min = top - em - 2
        and fp_max = top - Stackcert.trampoline_bytes - 2 in
        if
          fp_min + dl >= sec.Section.data_lo
          && fp_max + dh + ext <= sec.Section.data_hi
        then
          ( true,
            Printf.sprintf "arg 0: FP%+d..FP%+d+%d within the D region" dl dh
              ext )
        else
          ( false,
            Printf.sprintf "arg 0: FP%+d..FP%+d+%d may escape the D region" dl
              dh ext )
      | _, None ->
        (false, Printf.sprintf "arg 0: no certified entry depth for %s" fname)
      | None, _ -> (false, "arg 0: no stack_top symbol"))

let analyze ~(cfg : Cfi.t) ~(stack : Stackcert.t) =
  let sec = cfg.Cfi.cf_section in
  let sep = Iso.separate_stacks cfg.Cfi.cf_mode in
  let sites = ref [] in
  List.iter
    (fun (f : Cfi.func) ->
      let states = fixpoint f in
      List.iter
        (fun (b : Cfi.block) ->
          match Hashtbl.find_opt states b.Cfi.b_addr with
          | None -> () (* unreachable *)
          | Some st ->
            let regs = Array.copy st in
            List.iter
              (fun (i : Cfi.insn) ->
                (match Cfi.call_target cfg i.Cfi.i_op with
                | Some (Cfi.C_gate svc) -> (
                  match Apis.find svc with
                  | None | Some { Apis.pointer = Apis.No_pointer; _ } ->
                    () (* nothing for the kernel to validate *)
                  | Some s ->
                    let certified, reason =
                      certify_arg sec ~sep stack f.Cfi.f_name s.Apis.pointer
                        regs
                    in
                    sites :=
                      {
                        gs_fn = f.Cfi.f_name;
                        gs_addr = i.Cfi.i_addr;
                        gs_service = svc;
                        gs_certified = certified;
                        gs_reason = reason;
                      }
                      :: !sites)
                | _ -> ());
                step regs i)
              b.Cfi.b_insns)
        f.Cfi.f_blocks)
    (Cfi.functions cfg);
  let sites = List.rev !sites in
  let by_svc : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let cur =
        Option.value ~default:true (Hashtbl.find_opt by_svc s.gs_service)
      in
      Hashtbl.replace by_svc s.gs_service (cur && s.gs_certified))
    sites;
  let certified =
    Hashtbl.fold (fun k ok acc -> if ok then k :: acc else acc) by_svc []
    |> List.sort compare
  in
  { gt_sites = sites; gt_certified = certified }

let pp_site ppf s =
  Format.fprintf ppf "%04X %s: %s %s — %s" s.gs_addr s.gs_fn s.gs_service
    (if s.gs_certified then "certified" else "not certified")
    s.gs_reason
