(* WCET certifier tests: loop detection on synthetic graphs, the
   Unbounded degradation path, and — the load-bearing property — the
   soundness cross-check: for every dispatch the kernel records under
   the cycle-exact simulator, the observed cycle count must not exceed
   the handler's static bound.  An observed dispatch above its bound
   means the static analysis lied, and the build must fail. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Iso = Amulet_cc.Isolation
module Cfi = Amulet_analysis.Cfi
module Wcet = Amulet_analysis.Wcet
module LB = Amulet_analysis.Loopbound

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Loopbound on synthetic graphs *)

let graph entry edges =
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  {
    LB.g_entry = entry;
    g_nodes =
      List.map
        (fun n ->
          { LB.n_id = n;
            n_succs = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges })
        nodes;
  }

let test_loop_simple () =
  (* 1 -> 2 -> 3 -> 2 (back edge), 3 -> 4 *)
  match LB.analyze (graph 1 [ (1, 2); (2, 3); (3, 2); (3, 4) ]) with
  | LB.Reducible [ l ] ->
    check_int "header" 2 l.LB.l_header;
    Alcotest.(check (list (pair int int))) "back edge" [ (3, 2) ] l.LB.l_back_edges;
    Alcotest.(check (list int)) "body" [ 2; 3 ] l.LB.l_body
  | _ -> Alcotest.fail "expected one loop"

let test_loop_nested () =
  (* outer 2..5, inner 3..4 *)
  let g = graph 1 [ (1, 2); (2, 3); (3, 4); (4, 3); (4, 5); (5, 2); (5, 6) ] in
  match LB.analyze g with
  | LB.Reducible [ inner; outer ] ->
    (* innermost first *)
    check_int "inner header" 3 inner.LB.l_header;
    Alcotest.(check (list int)) "inner body" [ 3; 4 ] inner.LB.l_body;
    check_int "outer header" 2 outer.LB.l_header;
    Alcotest.(check (list int)) "outer body" [ 2; 3; 4; 5 ] outer.LB.l_body
  | _ -> Alcotest.fail "expected two loops"

let test_loop_self () =
  match LB.analyze (graph 1 [ (1, 1) ]) with
  | LB.Reducible [ l ] ->
    check_int "self header" 1 l.LB.l_header;
    Alcotest.(check (list int)) "self body" [ 1 ] l.LB.l_body
  | _ -> Alcotest.fail "expected self loop"

let test_loop_irreducible () =
  (* the classic two-entry loop: 1->2, 1->3, 2->3, 3->2 — neither 2
     nor 3 dominates the other *)
  match LB.analyze (graph 1 [ (1, 2); (1, 3); (2, 3); (3, 2) ]) with
  | LB.Irreducible _ -> ()
  | LB.Reducible _ -> Alcotest.fail "two-entry loop must be irreducible"

let test_loop_merged_header () =
  (* two back edges into one header make one loop *)
  let g = graph 1 [ (1, 2); (2, 3); (3, 2); (2, 4); (4, 2); (2, 5) ] in
  match LB.analyze g with
  | LB.Reducible [ l ] ->
    check_int "merged header" 2 l.LB.l_header;
    check_int "two back edges" 2 (List.length l.LB.l_back_edges);
    Alcotest.(check (list int)) "merged body" [ 2; 3; 4 ] l.LB.l_body
  | _ -> Alcotest.fail "expected one merged loop"

(* Loopbound against the reference (Test_support.Ref_loopbound, the
   dominator construction on every graph).  A case is a base shape (a
   straight line of up to 70 nodes, or a random DAG), then any of: a
   self-loop, a loop, two nested loops, two loops merged on one header,
   a two-entry loop, unreachable nodes with a cycle of their own, a
   repeated id, successors outside the node set and an entry outside
   it.  Ids are relabelled and the node list shuffled last. *)
let gen_graph =
  let open QCheck2.Gen in
  let* n = 1 -- 70 in
  let node = 0 -- (n - 1) in
  let sorted k = map (List.sort compare) (list_repeat k node) in
  let* base =
    let* dag = bool in
    flatten_l
      (List.init n (fun i ->
           if not dag then pure (if i + 1 < n then [ i + 1 ] else [])
           else if i + 1 < n then list_size (1 -- 3) ((i + 1) -- (n - 1))
           else pure []))
  in
  let some g = opt ~ratio:0.25 g in
  let* self = some node in
  let* loop = some (sorted 2) in
  let* nested = some (sorted 4) in
  let* merged = some (triple node node node) in
  let* two_entry = some (sorted 4) in
  let* unreachable = some (1 -- 4) in
  let* repeated = some (triple bool node (list_size (0 -- 3) node)) in
  let* outside = some (pair node (1 -- 3)) in
  let* missing_entry = frequencyl [ (1, true); (9, false) ] in
  let extra =
    List.concat
      [
        (match self with Some i -> [ (i, i) ] | None -> []);
        (match loop with Some [ i; j ] -> [ (j, i) ] | _ -> []);
        (match nested with Some [ a; b; c; d ] -> [ (c, b); (d, a) ] | _ -> []);
        (match merged with
        | Some (h, x, y) -> [ (max h x, h); (max h y, h) ]
        | None -> []);
        (* a loop k..j entered at k and, from p below it, at m *)
        (match two_entry with
        | Some [ p; k; m; j ] when p < k && k < m -> [ (j, k); (p, m) ]
        | _ -> []);
      ]
  in
  let u = Option.value ~default:0 unreachable in
  let nodes =
    List.mapi
      (fun i ss ->
        ( i,
          ss
          @ List.filter_map (fun (a, b) -> if a = i then Some b else None) extra
          @
          match outside with
          | Some (o, k) when o = i -> List.init k (fun x -> n + u + 1 + x)
          | _ -> [] ))
      base
    (* unreachable: a cycle through n .. n+u-1 that also enters node 0 *)
    @ List.init u (fun x -> (n + x, [ n + ((x + 1) mod u); 0 ]))
  in
  let nodes =
    match repeated with
    | Some (first, i, ss) -> if first then (i, ss) :: nodes else nodes @ [ (i, ss) ]
    | None -> nodes
  in
  let entry = if missing_entry then n + u else 0 in
  let* ids = shuffle_l (List.init (n + u + 4) Fun.id) in
  let id = Array.of_list (List.map (fun x -> 0x4400 + (2 * x)) ids) in
  let+ nodes = shuffle_l nodes in
  {
    LB.g_entry = id.(entry);
    g_nodes =
      List.map
        (fun (i, ss) -> { LB.n_id = id.(i); n_succs = List.map (Array.get id) ss })
        nodes;
  }

let print_graph (g : LB.graph) =
  Printf.sprintf "entry %d: %s" g.LB.g_entry
    (String.concat "; "
       (List.map
          (fun (n : LB.node) ->
            Printf.sprintf "%d -> [%s]" n.LB.n_id
              (String.concat " " (List.map string_of_int n.LB.n_succs)))
          g.LB.g_nodes))

let prop_loopbound_matches_reference =
  QCheck2.Test.make ~count:1000 ~name:"analyze = dominator reference"
    ~print:print_graph gen_graph (fun g ->
      LB.analyze g = Test_support.Ref_loopbound.analyze g)

(* ------------------------------------------------------------------ *)
(* Static analysis over real firmware *)

let wcet_of image mode prefix =
  match Cfi.reconstruct ~image ~mode ~prefix with
  | Error _ -> Alcotest.failf "CFI reconstruction failed for %s" prefix
  | Ok cfg -> Wcet.analyze ~image ~cfg

let build_one mode name =
  let app = Apps.find name in
  Aft.build ~mode [ Apps.spec_for mode app ]

let test_quicksort_unbounded_witness () =
  let fw = build_one Iso.Mpu_assisted "quicksort" in
  let w = wcet_of fw.Aft.fw_image Iso.Mpu_assisted "quicksort" in
  match Wcet.handler_bound w "handle_button" with
  | Some (Wcet.Unbounded { chain; _ }) ->
    let suffix = "$qsort_range" in
    let sn = String.length suffix in
    check_bool "witness names the recursive function" true
      (List.exists
         (fun s ->
           String.length s >= sn
           && String.sub s (String.length s - sn) sn = suffix)
         chain)
  | Some (Wcet.Bounded _) ->
    Alcotest.fail "recursive qsort must not get a bound"
  | None -> Alcotest.fail "handle_button missing from the report"

let test_helper_loops_bounded () =
  (* activity multiplies and divides: its bound must absorb the
     runtime helper loops, which only works if the stamped
     wcet.loop.<helper> notes resolve *)
  let fw = build_one Iso.Software_only "activity" in
  let w = wcet_of fw.Aft.fw_image Iso.Software_only "activity" in
  List.iter
    (fun (h : Wcet.handler_bound) ->
      match h.Wcet.hb_total with
      | Wcet.Bounded c -> check_bool (h.Wcet.hb_handler ^ " positive") true (c > 0)
      | Wcet.Unbounded _ ->
        Alcotest.failf "%s should be bounded" h.Wcet.hb_handler)
    w.Wcet.w_handlers

(* ------------------------------------------------------------------ *)
(* Soundness: static bound >= every observed dispatch *)

let soundness_apps =
  [ "pedometer"; "clock"; "fall_detection"; "heart_rate"; "activity";
    "gateheavy"; "callheavy" ]

let check_soundness mode name =
  match build_one mode name with
  | exception Aft.Source_error _ ->
    (* the app genuinely does not exist in this mode (feature check) *)
    0
  | fw ->
    let w = wcet_of fw.Aft.fw_image mode name in
    List.iter
      (fun (h : Wcet.handler_bound) ->
        match h.Wcet.hb_total with
        | Wcet.Bounded _ -> ()
        | Wcet.Unbounded _ ->
          Alcotest.failf "%s/%s: %s unexpectedly unbounded" name
            (Iso.name mode) h.Wcet.hb_handler)
      w.Wcet.w_handlers;
    let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~seed:11 fw in
    let records = Os.Kernel.run_for_ms k 10_000 in
    let checked = ref 0 in
    List.iter
      (fun (r : Os.Kernel.dispatch_record) ->
        match r.Os.Kernel.dr_outcome with
        | Os.Kernel.No_handler -> ()
        | Os.Kernel.Ok | Os.Kernel.App_fault _ -> (
          let handler = Os.Event.handler_name r.Os.Kernel.dr_kind in
          match Wcet.handler_bound w handler with
          | Some (Wcet.Bounded b) ->
            incr checked;
            if r.Os.Kernel.dr_cycles > b then
              Alcotest.failf
                "UNSOUND: %s/%s %s observed %d cycles above static bound %d"
                name (Iso.name mode) handler r.Os.Kernel.dr_cycles b
          | Some (Wcet.Unbounded _) | None -> ()))
      records;
    !checked

let test_soundness () =
  let total = ref 0 in
  List.iter
    (fun mode ->
      List.iter
        (fun name -> total := !total + check_soundness mode name)
        soundness_apps)
    Iso.all;
  (* the property must not hold vacuously *)
  check_bool
    (Printf.sprintf "checked enough dispatches (%d)" !total)
    true (!total > 500)

let () =
  Alcotest.run "wcet"
    [
      ( "loopbound",
        [
          Alcotest.test_case "simple loop" `Quick test_loop_simple;
          Alcotest.test_case "nested loops" `Quick test_loop_nested;
          Alcotest.test_case "self loop" `Quick test_loop_self;
          Alcotest.test_case "irreducible" `Quick test_loop_irreducible;
          Alcotest.test_case "merged header" `Quick test_loop_merged_header;
          Test_support.Seed.to_alcotest prop_loopbound_matches_reference;
        ] );
      ( "static",
        [
          Alcotest.test_case "recursion yields witness" `Quick
            test_quicksort_unbounded_witness;
          Alcotest.test_case "helper loops bounded" `Quick
            test_helper_loops_bounded;
        ] );
      ( "soundness",
        [ Alcotest.test_case "static >= dynamic" `Slow test_soundness ] );
    ]
