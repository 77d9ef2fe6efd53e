(* Binary-level worst-case stack bound.

   Works on the CFI-reconstructed CFG ({!Cfi}): an SP-displacement
   abstract interpretation gives each function its local high-water
   mark and the displacement at every call site; an interprocedural
   pass (with cycle detection and address-taken resolution of indirect
   calls) then bounds the deepest call chain from any event-handler
   root, including the trampoline's two pushes.  The bound is checked
   against the app's actual stack region from the link map —
   [data_lo, stack_top) — so a stack that can overflow into the app's
   globals (or out of its D_i region entirely) is rejected at lint
   time with the maximizing call chain as witness.

   This replaces *trust* in the compiler's source-level estimate
   ({!Amulet_cc.Stack_depth}): the two are computed from independent
   artifacts and cross-checked in the tests. *)

module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module Iso = Amulet_cc.Isolation

type verdict =
  | Certified of { bound : int; region : int; chain : string list }
      (** deepest chain (root first), bound includes the trampoline *)
  | Rejected of { bound : int; region : int; chain : string list }
  | Unbounded of { chain : string list; fenced : bool }
      (** recursive cycle; [fenced] when the MPU's segment-1 fence
          turns the overflow into a fault instead of a corruption *)
  | Unanalyzable of { addr : int; reason : string }
  | Not_applicable  (** shared-stack modes have no per-app region *)

type t = {
  sc_verdict : verdict;
  sc_fn_depth : (string * int) list;
      (** per-function worst-case stack use below its entry SP
          (absent for functions on a recursive cycle) *)
  sc_entry_max : (string * int) list;
      (** deepest possible entry depth below the dispatch-time stack
          top, including the trampoline's pushes and the call's return
          address — the quantity that bounds FP from below *)
}

(* Trampoline cost on the app stack before the handler runs: it pushes
   the event argument's saved R12 and the exit-label return address. *)
let trampoline_bytes = 4

(* Stack bytes an external callee occupies below the caller's SP,
   including its own return address: the declared footprint of a gate
   or runtime helper, a conservative 8 for any other. *)
let extern_cost name =
  Option.value ~default:8 (Amulet_cc.Apis.footprint name)

exception Unanalyzable_sp of int * string

(* ------------------------------------------------------------------ *)
(* Local pass: SP displacement per function *)

type local = {
  l_max : int;  (* high-water mark of sp below entry *)
  l_sites : (int * O.t) list;  (* (sp at site, CALL instruction) *)
}

(* Per-insn transfer on (sp, fp): sp = bytes below the entry SP
   (>= 0, entry has the return address at 0(SP)); fp = displacement
   recorded by the prologue's MOV SP, R4.  Beyond the stack idioms,
   any other SP write is unanalyzable and any other R4 write un-tracks
   the frame pointer. *)
let step_insn addr (sp, fp) op =
  match op with
  | O.Fmt2 (O.PUSH, _, _) -> (sp + 2, fp)
  | O.Fmt2 (O.CALL, _, _) -> (sp, fp)
  | O.Fmt1 (O.MOV, _, O.S_reg 1, O.D_reg 4) -> (sp, Some sp)
  | O.Fmt1 (O.MOV, _, O.S_reg 4, O.D_reg 1) -> (
    match fp with
    | Some d -> (d, fp)
    | None ->
      raise (Unanalyzable_sp (addr, "SP restored from an untracked R4")))
  | O.Fmt1 (O.ADD, _, O.S_immediate k, O.D_reg 1) ->
    (max 0 (sp - W.to_signed W.W16 k), fp)
  | O.Fmt1 (O.SUB, _, O.S_immediate k, O.D_reg 1) ->
    (sp + W.to_signed W.W16 k, fp)
  | _ ->
    let sp =
      match op with
      | O.Fmt1 (_, _, O.S_indirect_inc 1, d) when d <> O.D_reg 1 ->
        max 0 (sp - 2) (* pop *)
      | _ when O.writes_reg op 1 ->
        raise (Unanalyzable_sp (addr, "unanalyzable SP write"))
      | _ -> sp
    in
    (sp, if O.writes_reg op 4 then None else fp)

let join (sp1, fp1) (sp2, fp2) =
  ( max sp1 sp2,
    match (fp1, fp2) with
    | Some a, Some b when a = b -> Some a
    | _ -> None )

(* A net-growth loop makes sp diverge: the join that changes a
   block's state for the 33rd time gives up. *)
let widen_limit = 32

let analyze_function (f : Cfi.func) : local =
  let block_of = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_of b.Cfi.b_addr b) f.Cfi.f_blocks;
  (* every visit of a block records its call sites, so a site reached
     with several depths appears once per visit, in visit order: the
     interprocedural pass keeps the first of equal chains *)
  let maxd = ref 0 and sites = ref [] in
  let transfer a st =
    match Hashtbl.find_opt block_of a with
    | None -> []
    | Some b ->
      let final =
        List.fold_left
          (fun st (i : Cfi.insn) ->
            (match i.Cfi.i_op with
            | O.Fmt2 (O.CALL, _, _) ->
              sites := (fst st, i.Cfi.i_op) :: !sites
            | _ -> ());
            let st' = step_insn i.Cfi.i_addr st i.Cfi.i_op in
            if fst st' > !maxd then maxd := fst st';
            st')
          st b.Cfi.b_insns
      in
      List.map (fun (t, _) -> (t, final)) b.Cfi.b_succs
  in
  let widen a ~joins ~old:_ j =
    if joins > widen_limit then
      raise
        (Unanalyzable_sp
           (a, "stack depth does not converge (net growth in a loop)"));
    j
  in
  ignore
    (Fixpoint.solve ~join ~equal:( = ) ~widen ~transfer
       [ (f.Cfi.f_entry, (0, None)) ]);
  { l_max = !maxd; l_sites = List.rev !sites }

(* ------------------------------------------------------------------ *)
(* Interprocedural bound *)

exception Cycle of string list

let analyze ~(cfg : Cfi.t) =
  let sec = cfg.Cfi.cf_section in
  let prefix = sec.Section.prefix in
  let funcs = Cfi.functions cfg in
  let unmangled name =
    let pl = String.length prefix + 1 in
    if prefix <> "" && String.length name > pl then
      String.sub name pl (String.length name - pl)
    else name
  in
  let roots =
    List.filter
      (fun (f : Cfi.func) ->
        let n = unmangled f.Cfi.f_name in
        n = "main"
        || (String.length n >= 7 && String.sub n 0 7 = "handle_"))
      funcs
  in
  let locals = Hashtbl.create 16 in
  let first_error = ref None in
  List.iter
    (fun (f : Cfi.func) ->
      match analyze_function f with
      | l -> Hashtbl.replace locals f.Cfi.f_name l
      | exception Unanalyzable_sp (addr, reason) ->
        if !first_error = None then first_error := Some (addr, reason))
    funcs;
  (* indirect calls can reach any address-taken function; if none is
     visible, assume the worst: any function *)
  let indirect_targets =
    match cfg.Cfi.cf_addr_taken with
    | [] -> List.map (fun (f : Cfi.func) -> f.Cfi.f_name) funcs
    | l -> l
  in
  (* wcs f = deepest stack use below f's entry SP, with the maximizing
     chain (f first) as witness *)
  let memo : (string, int * string list) Hashtbl.t = Hashtbl.create 16 in
  let rec wcs path name =
    if List.mem name path then
      raise
        (Cycle
           (let rec cut acc = function
              | [] -> acc
              | x :: rest ->
                if x = name then x :: acc else cut (x :: acc) rest
            in
            cut [] path))
    else
      match Hashtbl.find_opt memo name with
      | Some r -> r
      | None ->
        let l =
          match Hashtbl.find_opt locals name with
          | Some l -> l
          | None -> { l_max = 0; l_sites = [] }
        in
        let best = ref (l.l_max, [ name ]) in
        let consider sp cost chain =
          if sp + cost > fst !best then best := (sp + cost, name :: chain)
        in
        List.iter
          (fun (sp, op) ->
            match Cfi.call_target cfg op with
            | Some (Cfi.C_local g) ->
              let d, chain = wcs (name :: path) g in
              consider sp (2 + d) chain
            | Some (Cfi.C_helper h) -> consider sp (extern_cost h) [ h ]
            | Some (Cfi.C_gate s) ->
              let gate = Amulet_cc.Apis.gate_label s in
              consider sp (extern_cost gate) [ gate ]
            | Some Cfi.C_indirect ->
              List.iter
                (fun g ->
                  let d, chain = wcs (name :: path) g in
                  consider sp (2 + d) chain)
                indirect_targets
            | None -> ())
          l.l_sites;
        Hashtbl.replace memo name !best;
        !best
  in
  let compute () =
    List.fold_left
      (fun acc (f : Cfi.func) ->
        let d, chain = wcs [] f.Cfi.f_name in
        match acc with
        | Some (best, _) when best >= trampoline_bytes + d -> acc
        | _ -> Some (trampoline_bytes + d, chain))
      None roots
  in
  (* deepest possible entry depth per function (below the dispatch
     stack top): longest path over the (acyclic, once wcs succeeded)
     call graph *)
  let entry_max () =
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let bump name d =
      match Hashtbl.find_opt tbl name with
      | Some d' when d' >= d -> false
      | _ ->
        Hashtbl.replace tbl name d;
        true
    in
    let rec push name d =
      if bump name d then
        match Hashtbl.find_opt locals name with
        | None -> ()
        | Some l ->
          List.iter
            (fun (sp, op) ->
              match Cfi.call_target cfg op with
              | Some (Cfi.C_local g) -> push g (d + sp + 2)
              | Some Cfi.C_indirect ->
                List.iter (fun g -> push g (d + sp + 2)) indirect_targets
              | _ -> ())
            l.l_sites
    in
    List.iter
      (fun (f : Cfi.func) -> push f.Cfi.f_name trampoline_bytes)
      roots;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  let fn_depths () =
    Hashtbl.fold (fun k (d, _) acc -> (k, d) :: acc) memo []
    |> List.sort compare
  in
  match !first_error with
  | Some (addr, reason) ->
    { sc_verdict = Unanalyzable { addr; reason };
      sc_fn_depth = []; sc_entry_max = [] }
  | None -> (
    match compute () with
    | exception Cycle chain ->
      {
        sc_verdict =
          Unbounded
            { chain; fenced = Iso.uses_mpu cfg.Cfi.cf_mode };
        sc_fn_depth = [];
        sc_entry_max = [];
      }
    | None ->
      (* no roots: nothing dispatches into this app *)
      {
        sc_verdict =
          (if Iso.separate_stacks cfg.Cfi.cf_mode then
             Certified { bound = 0; region = 0; chain = [] }
           else Not_applicable);
        sc_fn_depth = fn_depths ();
        sc_entry_max = [];
      }
    | Some (bound, chain) ->
      let em = entry_max () and fd = fn_depths () in
      if not (Iso.separate_stacks cfg.Cfi.cf_mode) then
        { sc_verdict = Not_applicable; sc_fn_depth = fd; sc_entry_max = em }
      else
        let stack_top =
          match sec.Section.stack_top with
          | Some a -> a
          | None ->
            invalid_arg
              (Printf.sprintf "stackcert: image has no stack top for %S"
                 prefix)
        in
        let region = stack_top - sec.Section.data_lo in
        let verdict =
          if bound <= region then Certified { bound; region; chain }
          else Rejected { bound; region; chain }
        in
        { sc_verdict = verdict; sc_fn_depth = fd; sc_entry_max = em })

let entry_max_of t name = List.assoc_opt name t.sc_entry_max

let pp_verdict ppf = function
  | Certified { bound; region; chain } ->
    Format.fprintf ppf "certified: %d of %d bytes (deepest: %s)" bound region
      (String.concat " -> " chain)
  | Rejected { bound; region; chain } ->
    Format.fprintf ppf
      "stack bound %d exceeds the %d-byte region (deepest: %s)" bound region
      (String.concat " -> " chain)
  | Unbounded { chain; fenced } ->
    Format.fprintf ppf "unbounded (cycle: %s)%s"
      (String.concat " -> " chain)
      (if fenced then " — MPU fence catches the overflow" else "")
  | Unanalyzable { addr; reason } ->
    Format.fprintf ppf "unanalyzable at %04X: %s" addr reason
  | Not_applicable -> Format.fprintf ppf "not applicable (shared stack)"
