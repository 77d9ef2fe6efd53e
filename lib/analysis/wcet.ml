module I = Amulet_link.Image
module O = Amulet_mcu.Opcode
module D = Amulet_mcu.Decode
module M = Amulet_mcu.Machine
module Cyc = Amulet_mcu.Cycles

type verdict =
  | Bounded of int
  | Unbounded of { reason : string; chain : string list }

type func_bound = {
  fb_name : string;
  fb_verdict : verdict;
  fb_loops : int;
  fb_bounded_loops : int;
}

type handler_bound = {
  hb_handler : string;
  hb_fn : verdict;
  hb_dispatch : verdict;
  hb_total : verdict;
}

type t = {
  w_prefix : string;
  w_mode : Amulet_cc.Isolation.mode;
  w_funcs : func_bound list;
  w_handlers : handler_bound list;
  w_loops : int;
  w_bounded_loops : int;
}

(* carried reason plus the call chain (root first) accumulated as the
   exception unwinds through the per-function analyses *)
exception Unb of string * string list

(* iteration bounds stamped on the image: [wcet.loop.<label>] notes,
   keyed here by the header label's resolved address *)
let loop_bounds image =
  let tbl = Hashtbl.create 32 in
  let prefix = "wcet.loop." in
  let plen = String.length prefix in
  List.iter
    (fun (k, v) ->
      if String.length k > plen && String.sub k 0 plen = prefix then begin
        let label = String.sub k plen (String.length k - plen) in
        if I.has_symbol image label then
          match int_of_string_opt v with
          | Some b when b >= 0 -> Hashtbl.replace tbl (I.symbol image label) b
          | _ -> ()
      end)
    image.I.notes

  ;
  tbl

(* ------------------------------------------------------------------ *)
(* Bounded longest path: collapse natural loops innermost-first, then
   take the maximum-cost path from the entry over the resulting DAG.
   [nodes] is [(addr, cost, succs)]; successors outside the node set
   are span exits and contribute nothing.  [loops] is the
   {!Loopbound.analyze} verdict on the same graph. *)

let solve ~bounds ~what ~entry ~loops nodes =
  let cost = Hashtbl.create 64 in
  let succ = Hashtbl.create 64 in
  List.iter
    (fun (a, c, ss) ->
      Hashtbl.replace cost a c;
      Hashtbl.replace succ a ss)
    nodes;
  let rep = Hashtbl.create 8 in
  let rec find a =
    match Hashtbl.find_opt rep a with
    | None -> a
    | Some p ->
      let r = find p in
      Hashtbl.replace rep a r;
      r
  in
  let succs_of a =
    List.filter_map
      (fun s -> if Hashtbl.mem cost s || Hashtbl.mem rep s then Some (find s) else None)
      (Option.value ~default:[] (Hashtbl.find_opt succ a))
    |> List.sort_uniq compare
  in
  (* longest path from [start] restricted to [inside] nodes, never
     following an edge back to [stop] (the loop header, when
     collapsing a body); memoized DFS with an in-stack cycle guard *)
  let longest ?(inside = fun _ -> true) ?(stop = fun _ -> false) start =
    let memo = Hashtbl.create 64 in
    let active = Hashtbl.create 16 in
    let rec go a =
      match Hashtbl.find_opt memo a with
      | Some v -> v
      | None ->
        if Hashtbl.mem active a then
          raise
            (Unb
               ( Printf.sprintf "cycle through 0x%04X survived loop collapse in %s"
                   a what,
                 [] ));
        Hashtbl.replace active a ();
        let best =
          List.fold_left
            (fun acc s ->
              if inside s && not (stop s) then max acc (go s) else acc)
            0 (succs_of a)
        in
        Hashtbl.remove active a;
        let v = Hashtbl.find cost a + best in
        Hashtbl.replace memo a v;
        v
    in
    go start
  in
  (match loops with
  | Loopbound.Irreducible { edge_src; edge_dst } ->
    raise
      (Unb
         ( Printf.sprintf
             "irreducible control flow in %s (retreating edge 0x%04X -> 0x%04X)"
             what edge_src edge_dst,
           [] ))
  | Loopbound.Reducible loops ->
    (* innermost first: Loopbound sorts by body size, and a nested
       loop's body is a strict subset of its outer loop's *)
    List.iter
      (fun (l : Loopbound.loop) ->
        let h = l.Loopbound.l_header in
        let body =
          List.sort_uniq compare (List.map find l.Loopbound.l_body)
        in
        let iters =
          match Hashtbl.find_opt bounds h with
          | Some b -> b
          | None ->
            raise
              (Unb
                 ( Printf.sprintf
                     "loop at 0x%04X in %s has no stamped iteration bound \
                      (back edge from 0x%04X)"
                     h what
                     (fst (List.hd l.Loopbound.l_back_edges)),
                   [] ))
        in
        let inside s = List.mem s body in
        (* one iteration = longest body path from the header; charged
           B + 1 times so the final failing header test is covered *)
        let path = longest ~inside ~stop:(fun s -> s = h) h in
        let exits =
          List.concat_map
            (fun u -> List.filter (fun s -> not (inside s)) (succs_of u))
            body
          |> List.sort_uniq compare
        in
        Hashtbl.replace cost h ((iters + 1) * path);
        Hashtbl.replace succ h exits;
        List.iter (fun u -> if u <> h then Hashtbl.replace rep u h) body)
      loops);
  longest (find entry)

let graph_loops ~entry nodes =
  Loopbound.analyze
    {
      Loopbound.g_entry = entry;
      g_nodes =
        List.map
          (fun (a, _, ss) -> { Loopbound.n_id = a; n_succs = ss })
          nodes;
    }

(* ------------------------------------------------------------------ *)

let analyze ~image ~(cfg : Cfi.t) =
  let sec = cfg.Cfi.cf_section in
  let prefix = sec.Section.prefix and fetch = sec.Section.fetch in
  let bounds = loop_bounds image in
  let certified = Amulet_cc.Apis.certified_services image ~app:prefix in
  (* ---- OS-side spans: stubs, gates, runtime helpers ----
     Instruction-level exploration from an entry address; terminals
     are RET, RETI, computed PC writes (the trampoline's dispatch into
     app code) and writes to the halt or fault port.  [BR #imm] is
     followed (exit stub -> __osreturn); [CALL #imm] charges the
     callee span and falls through. *)
  let span_memo = Hashtbl.create 16 in
  let span_active = Hashtbl.create 16 in
  let rec span_wcet ~what entry =
    match Hashtbl.find_opt span_memo entry with
    | Some v -> v
    | None ->
      if Hashtbl.mem span_active entry then
        raise (Unb ("recursive OS span", [ what ]));
      Hashtbl.replace span_active entry ();
      let v =
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove span_active entry)
          (fun () ->
            try compute_span ~what entry
            with Unb (r, c) -> raise (Unb (r, what :: c)))
      in
      Hashtbl.replace span_memo entry v;
      v
  and compute_span ~what entry =
    let nodes = Hashtbl.create 64 in
    let count = ref 0 in
    let rec visit a =
      if not (Hashtbl.mem nodes a) then begin
        incr count;
        if !count > 4096 then
          raise (Unb ("OS span exploration exceeded 4096 instructions", []));
        let op, size =
          try D.decode ~fetch ~addr:a
          with D.Illegal w ->
            raise
              (Unb (Printf.sprintf "undecodable word 0x%04X at 0x%04X" w a, []))
        in
        let base = Cyc.cycles op in
        let writes_port p =
          match op with
          | O.Fmt1 (o, _, _, O.D_absolute d) -> O.writes_back o && d = p
          | _ -> false
        in
        let cost, succs =
          if writes_port M.halt_port || writes_port M.sw_fault_port then
            (base, [])
          else
            match (op, O.jump_target op ~pc:a) with
            | O.Jump (O.JMP, _), Some t -> (base, [ t ])
            | _, Some t -> (base, [ t; a + size ])
            | O.Fmt2 (O.CALL, _, O.S_immediate k), None ->
              let callee =
                match
                  Hashtbl.find_opt cfg.Cfi.cf_section.Section.externals k
                with
                | Some n -> span_wcet ~what:n k
                | None -> span_wcet ~what:(Printf.sprintf "0x%04X" k) k
              in
              (base + callee, [ a + size ])
            | O.Fmt2 (O.CALL, _, _), None ->
              raise
                (Unb
                   ( Printf.sprintf "indirect call at 0x%04X in OS span" a,
                     [] ))
            | _ -> (
              match O.br_target op with
              | Some k -> (base, [ k ])
              | None when O.writes_reg op Amulet_mcu.Registers.pc -> (base, [])
              | None -> (base, [ a + size ]))
        in
        Hashtbl.replace nodes a (cost, succs);
        List.iter visit succs
      end
    in
    visit entry;
    let nodes =
      Hashtbl.fold (fun a (c, ss) acc -> (a, c, ss) :: acc) nodes []
    in
    solve ~bounds ~what ~entry ~loops:(graph_loops ~entry nodes) nodes
  in
  let gate_cost svc =
    let lbl = Amulet_cc.Apis.gate_label svc in
    if not (I.has_symbol image lbl) then
      raise (Unb ("missing gate stub " ^ lbl, []))
    else
      span_wcet ~what:lbl (I.symbol image lbl)
      + Amulet_cc.Apis.worst_case_charge
          ~certified:(List.mem svc certified)
          svc
  in
  (* a block that branches out of its function hits a fault stub whose
     port write still executes before the machine stops *)
  let stub_extra (b : Cfi.block) =
    match List.rev b.Cfi.b_insns with
    | last :: _ when b.Cfi.b_succs = [] -> (
      match O.br_target last.Cfi.i_op with
      | Some k when Hashtbl.mem cfg.Cfi.cf_stub_of k ->
        span_wcet ~what:(Hashtbl.find cfg.Cfi.cf_stub_of k) k
      | _ -> 0)
    | _ -> 0
  in
  (* ---- app functions ---- *)
  (* each function's loops, analysed once for both its loop count and
     [solve] *)
  let loop_memo = Hashtbl.create 16 in
  let fn_loops (f : Cfi.func) =
    match Hashtbl.find_opt loop_memo f.Cfi.f_name with
    | Some l -> l
    | None ->
      let l = Loopbound.analyze (Loopbound.of_func f) in
      Hashtbl.replace loop_memo f.Cfi.f_name l;
      l
  in
  let fn_memo : (string, verdict) Hashtbl.t = Hashtbl.create 16 in
  let rec fn_wcet stack name =
    match Hashtbl.find_opt fn_memo name with
    | Some (Bounded c) -> c
    | Some (Unbounded { reason; chain }) -> raise (Unb (reason, chain))
    | None ->
      if List.mem name stack then
        raise (Unb ("recursive call cycle", [ name ]));
      let v =
        try Bounded (compute_fn (name :: stack) name)
        with Unb (r, c) -> Unbounded { reason = r; chain = name :: c }
      in
      Hashtbl.replace fn_memo name v;
      (match v with
      | Bounded c -> c
      | Unbounded { reason; chain } -> raise (Unb (reason, chain)))
  and compute_fn stack name =
    let f =
      match Cfi.find_function cfg name with
      | Some f -> f
      | None -> raise (Unb ("unknown function " ^ name, []))
    in
    let nodes =
      List.map
        (fun (b : Cfi.block) ->
          let extra =
            List.fold_left
              (fun acc (i : Cfi.insn) ->
                acc
                +
                match Cfi.call_target cfg i.Cfi.i_op with
                | None -> 0
                | Some (Cfi.C_local n) -> fn_wcet stack n
                | Some (Cfi.C_helper n) ->
                  if I.has_symbol image n then
                    span_wcet ~what:n (I.symbol image n)
                  else raise (Unb ("missing helper " ^ n, []))
                | Some (Cfi.C_gate svc) -> gate_cost svc
                | Some Cfi.C_indirect -> (
                  match cfg.Cfi.cf_addr_taken with
                  | [] ->
                    raise
                      (Unb
                         ( "indirect call with no address-taken candidates",
                           [] ))
                  | cands ->
                    List.fold_left
                      (fun acc n -> max acc (fn_wcet stack n))
                      0 cands))
              0 b.Cfi.b_insns
          in
          ( b.Cfi.b_addr,
            b.Cfi.b_cycles + extra + stub_extra b,
            List.map fst b.Cfi.b_succs ))
        f.Cfi.f_blocks
    in
    solve ~bounds ~what:name ~entry:f.Cfi.f_entry ~loops:(fn_loops f) nodes
  in
  let verdict_of name =
    match fn_wcet [] name with
    | c -> Bounded c
    | exception Unb (reason, chain) -> Unbounded { reason; chain }
  in
  let funcs =
    List.map
      (fun (f : Cfi.func) ->
        let nloops, nbounded =
          match fn_loops f with
          | Loopbound.Reducible ls ->
            ( List.length ls,
              List.length
                (List.filter
                   (fun (l : Loopbound.loop) ->
                     Hashtbl.mem bounds l.Loopbound.l_header)
                   ls) )
          | Loopbound.Irreducible _ -> (0, 0)
        in
        {
          fb_name = f.Cfi.f_name;
          fb_verdict = verdict_of f.Cfi.f_name;
          fb_loops = nloops;
          fb_bounded_loops = nbounded;
        })
      (Cfi.functions cfg)
  in
  (* ---- handlers: trampoline + function + exit/__osreturn ---- *)
  let dispatch_overhead () =
    let tramp = "__tramp_" ^ prefix and exitl = "__exit_" ^ prefix in
    List.fold_left
      (fun acc lbl ->
        if I.has_symbol image lbl then
          acc + span_wcet ~what:lbl (I.symbol image lbl)
        else raise (Unb ("missing dispatch stub " ^ lbl, [])))
      0 [ tramp; exitl ]
  in
  let handler_prefix = prefix ^ "$handle_" in
  let hplen = String.length handler_prefix in
  let handlers =
    List.filter_map
      (fun fb ->
        if
          String.length fb.fb_name > hplen
          && String.sub fb.fb_name 0 hplen = handler_prefix
        then begin
          let short =
            String.sub fb.fb_name
              (String.length prefix + 1)
              (String.length fb.fb_name - String.length prefix - 1)
          in
          let dispatch =
            match dispatch_overhead () with
            | c -> Bounded c
            | exception Unb (reason, chain) -> Unbounded { reason; chain }
          in
          let total =
            match (fb.fb_verdict, dispatch) with
            | Bounded f, Bounded d -> Bounded (f + d)
            | (Unbounded _ as u), _ | _, (Unbounded _ as u) -> u
          in
          Some
            {
              hb_handler = short;
              hb_fn = fb.fb_verdict;
              hb_dispatch = dispatch;
              hb_total = total;
            }
        end
        else None)
      funcs
  in
  {
    w_prefix = prefix;
    w_mode = cfg.Cfi.cf_mode;
    w_funcs = funcs;
    w_handlers = handlers;
    w_loops = List.fold_left (fun a f -> a + f.fb_loops) 0 funcs;
    w_bounded_loops =
      List.fold_left (fun a f -> a + f.fb_bounded_loops) 0 funcs;
  }

let handler_bound t name =
  List.find_map
    (fun h -> if h.hb_handler = name then Some h.hb_total else None)
    t.w_handlers

let pp_verdict ppf = function
  | Bounded c -> Format.fprintf ppf "bounded: %d cycles" c
  | Unbounded { reason; chain } ->
    Format.fprintf ppf "unbounded: %s%s" reason
      (match chain with
      | [] -> ""
      | c -> " [" ^ String.concat " -> " c ^ "]")
