(* Natural loops of integer-labelled graphs (see loopbound.mli).

   Most graphs the WCET pass hands over have no cycle at all: a
   campaign pass ([Campaign.run ~jobs:1 ~seed:1]) analyses 560 graphs,
   and 530 of them are loop-free (the OS stubs and gates, and app
   functions without loops).  [analyze] therefore runs one DFS first
   and answers [Reducible []] when it meets no edge into a node still
   on its stack.  Only cyclic graphs (the runtime helpers' loops, app
   functions with loops) reach the dominator construction. *)

module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type node = { n_id : int; n_succs : int list }
type graph = { g_entry : int; g_nodes : node list }

type loop = {
  l_header : int;
  l_back_edges : (int * int) list;
  l_body : int list;
}

type verdict =
  | Reducible of loop list
  | Irreducible of { edge_src : int; edge_dst : int }

(* One DFS over the part of the graph reachable from the entry.  An
   edge into a node still on the stack closes a cycle; a graph without
   one has no back edge and no retreating edge, hence no loop. *)
let cyclic succ_map entry =
  let on_stack = Hashtbl.create 32 in
  let rec visit id =
    match Hashtbl.find_opt on_stack id with
    | Some active -> active
    | None -> (
      match IMap.find_opt id succ_map with
      | None -> false
      | Some succs ->
        Hashtbl.replace on_stack id true;
        let c = List.exists visit succs in
        Hashtbl.replace on_stack id false;
        c)
  in
  visit entry

(* The textbook construction, for graphs with a cycle. *)
let dominator_loops g succ_map =
  (* edges out of the known node set are span exits and carry no loop
     structure *)
  let succs id =
    List.filter
      (fun s -> IMap.mem s succ_map)
      (Option.value ~default:[] (IMap.find_opt id succ_map))
  in
  (* dominator sets as a forward dataflow: a node's dominators are
     itself and those common to every predecessor; the solved nodes are
     the ones reachable from the entry *)
  let doms =
    Fixpoint.solve ~join:ISet.inter ~equal:ISet.equal
      ~widen:(fun _ ~joins:_ ~old:_ d -> d)
      ~transfer:(fun n d -> List.map (fun s -> (s, ISet.add s d)) (succs n))
      [ (g.g_entry, ISet.singleton g.g_entry) ]
  in
  let nodes = Hashtbl.fold (fun n _ acc -> ISet.add n acc) doms ISet.empty in
  let preds = Hashtbl.create 16 in
  ISet.iter
    (fun n ->
      List.iter
        (fun s ->
          Hashtbl.replace preds s
            (n :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
        (succs n))
    nodes;
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
  dfs g.g_entry;
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

let analyze g =
  let succ_map =
    List.fold_left
      (fun m n -> IMap.add n.n_id n.n_succs m)
      IMap.empty g.g_nodes
  in
  if cyclic succ_map g.g_entry then dominator_loops g succ_map
  else Reducible []

let of_func (f : Cfi.func) =
  {
    g_entry = f.Cfi.f_entry;
    g_nodes =
      List.map
        (fun (b : Cfi.block) ->
          { n_id = b.Cfi.b_addr;
            n_succs = List.map fst b.Cfi.b_succs })
        f.Cfi.f_blocks;
  }
