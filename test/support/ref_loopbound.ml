(* Reference for [Amulet_analysis.Loopbound.analyze]: the textbook
   construction on every graph, loop-free or not (iterative dominator
   sets, back edges as the edges whose target dominates their source, a
   DFS for retreating edges, natural-loop bodies by backwards
   reachability).  The library skips the dominator sets when one DFS
   finds no cycle, and solves them on the worklist engine
   ([Fixpoint.solve]) when it finds one; the two must give the same
   verdict on every graph. *)

open Amulet_analysis.Loopbound
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

let analyze g =
  let succ_map =
    List.fold_left
      (fun m n -> IMap.add n.n_id n.n_succs m)
      IMap.empty g.g_nodes
  in
  let raw_succs id = try IMap.find id succ_map with Not_found -> [] in
  (* restrict to nodes reachable from the entry; edges out of the
     known node set are span exits and carry no loop structure *)
  let rec reach seen id =
    if ISet.mem id seen || not (IMap.mem id succ_map) then seen
    else List.fold_left reach (ISet.add id seen) (raw_succs id)
  in
  let nodes = reach ISet.empty g.g_entry in
  let succs id = List.filter (fun s -> ISet.mem s nodes) (raw_succs id) in
  let preds = Hashtbl.create 16 in
  ISet.iter
    (fun n ->
      List.iter
        (fun s ->
          Hashtbl.replace preds s
            (n :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
        (succs n))
    nodes;
  (* iterative dominator sets: quadratic, and hard to get wrong *)
  let doms = Hashtbl.create 16 in
  ISet.iter
    (fun n ->
      Hashtbl.replace doms n
        (if n = g.g_entry then ISet.singleton n else nodes))
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    ISet.iter
      (fun n ->
        if n <> g.g_entry then begin
          let ps = Option.value ~default:[] (Hashtbl.find_opt preds n) in
          let inter =
            List.fold_left
              (fun acc p -> ISet.inter acc (Hashtbl.find doms p))
              nodes ps
          in
          let d = ISet.add n inter in
          if not (ISet.equal d (Hashtbl.find doms n)) then begin
            Hashtbl.replace doms n d;
            changed := true
          end
        end)
      nodes
  done;
  let dominates a b = ISet.mem a (Hashtbl.find doms b) in
  let back_edges =
    ISet.fold
      (fun u acc ->
        List.fold_left
          (fun acc v -> if dominates v u then (u, v) :: acc else acc)
          acc (succs u))
      nodes []
  in
  let is_back u v = List.mem (u, v) back_edges in
  (* reducibility: with the back edges removed the graph must be
     acyclic; a surviving retreating edge is a second entry into some
     loop and defeats per-header iteration bounds *)
  let color = Hashtbl.create 16 in
  let offending = ref None in
  let rec dfs u =
    match Hashtbl.find_opt color u with
    | Some `Done -> ()
    | Some `Active -> ()
    | None ->
      Hashtbl.replace color u `Active;
      List.iter
        (fun v ->
          if not (is_back u v) then
            match Hashtbl.find_opt color v with
            | Some `Active -> if !offending = None then offending := Some (u, v)
            | Some `Done -> ()
            | None -> dfs v)
        (succs u);
      Hashtbl.replace color u `Done
  in
  if ISet.mem g.g_entry nodes then dfs g.g_entry;
  match !offending with
  | Some (edge_src, edge_dst) -> Irreducible { edge_src; edge_dst }
  | None ->
    (* natural loop of a back edge (u, h): h plus everything that
       reaches u without passing through h *)
    let by_header = Hashtbl.create 8 in
    List.iter
      (fun (u, h) ->
        let body = ref (ISet.singleton h) in
        let rec pull n =
          if not (ISet.mem n !body) then begin
            body := ISet.add n !body;
            List.iter pull
              (Option.value ~default:[] (Hashtbl.find_opt preds n))
          end
        in
        pull u;
        let prev_edges, prev_body =
          Option.value ~default:([], ISet.empty)
            (Hashtbl.find_opt by_header h)
        in
        Hashtbl.replace by_header h
          ((u, h) :: prev_edges, ISet.union prev_body !body))
      back_edges;
    let loops =
      Hashtbl.fold
        (fun h (edges, body) acc ->
          { l_header = h;
            l_back_edges = List.rev edges;
            l_body = ISet.elements body }
          :: acc)
        by_header []
    in
    Reducible
      (List.sort
         (fun a b ->
           compare
             (List.length a.l_body, a.l_header)
             (List.length b.l_body, b.l_header))
         loops)
