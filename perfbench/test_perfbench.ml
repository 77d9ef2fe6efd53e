(* The benchmark's own checks: metric declarations are well formed and
   agree with BENCHMARK.json, the ledger emits exactly the declared
   names, and the seed reaches the inputs it should and no others. *)

module Mx = Metrics
module W = Workloads
module Json = Amulet_obs.Json

let all_decls = Mx.end_to_end @ Mx.per_layer

let valid_unit u =
  u <> ""
  && String.length u <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

let test_names () =
  List.iter
    (fun d ->
      Alcotest.(check bool) ("name " ^ d.Mx.name) true (Mx.valid_name d.Mx.name);
      Alcotest.(check bool) ("unit of " ^ d.Mx.name) true (valid_unit d.Mx.unit_))
    all_decls;
  let names = List.map (fun d -> d.Mx.name) all_decls in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Mx.valid_name bad))
    [ ""; "_x"; "a b"; "kernel/create"; "p99%"; String.make 65 'a' ]

let test_bounds () =
  List.iter
    (fun d ->
      match d.Mx.bound with
      | Some b -> Alcotest.(check bool) ("bound of " ^ d.Mx.name) true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail (d.Mx.name ^ ": end-to-end metric without a bound"))
    Mx.end_to_end;
  List.iter
    (fun d -> Alcotest.(check bool) (d.Mx.name ^ " has no bound") true (d.Mx.bound = None))
    Mx.per_layer;
  let setup = List.find (fun d -> d.Mx.name = "setup_s") Mx.end_to_end in
  Alcotest.(check string) "setup_s unit" "s" setup.Mx.unit_;
  Alcotest.(check bool) "setup_s lower is better" true (setup.Mx.better = Mx.Lower);
  List.iter
    (fun d ->
      Alcotest.(check bool) ("setup_s bound >= " ^ d.Mx.name) true
        (setup.Mx.bound >= d.Mx.bound))
    Mx.end_to_end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  let doc = Json.parse (read_file "BENCHMARK.json") in
  let list key =
    match Json.member key doc with Some (Json.Arr l) -> l | _ -> Alcotest.fail key
  in
  let str key o = Option.bind (Json.member key o) Json.to_str in
  let decl_of o =
    ( str "name" o,
      str "unit" o,
      str "better" o,
      match Json.member "bound" o with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None )
  in
  let ours d =
    (Some d.Mx.name, Some d.Mx.unit_, Some (Mx.better_name d.Mx.better), d.Mx.bound)
  in
  let same what json decls =
    Alcotest.(check int) (what ^ " count") (List.length decls) (List.length json);
    List.iter2
      (fun o d ->
        Alcotest.(check bool) (what ^ " " ^ d.Mx.name) true (decl_of o = ours d))
      json decls
  in
  same "end_to_end" (list "end_to_end") Mx.end_to_end;
  same "per_layer" (list "per_layer") Mx.per_layer;
  Alcotest.(check (list string)) "workloads" (List.map fst W.all)
    (List.filter_map (str "name") (list "workloads"))

let test_ledger_names () =
  let sample =
    {
      W.wall_s = 1.0; devices = 1; cells = 1; dispatches = 1; sim_cycles = 1;
      dispatch = Amulet_obs.Hist.create ();
    }
  in
  let names l = List.map fst l in
  Alcotest.(check (list string)) "end-to-end names"
    (List.map (fun d -> d.Mx.name) Mx.end_to_end)
    (names (Ledger.end_to_end ~setup_s:1.0 ~heap_mb:1.0 ~accuracy:(W.accuracy ()) [ sample ]));
  Alcotest.(check (list string)) "per-layer names"
    (List.map (fun d -> d.Mx.name) Mx.per_layer)
    (names (Ledger.per_layer (Hashtbl.create 1) (W.counters ()) ~overhead:1.0))

let test_seed_inputs () =
  let d w seed = W.describe_inputs w ~seed in
  List.iter
    (fun w ->
      Alcotest.(check string) (W.name w ^ " same seed, same inputs") (d w 5) (d w 5))
    (List.map snd W.all);
  Alcotest.(check bool) "seed changes fleet_steady inputs" true
    (d W.Fleet_steady 1 <> d W.Fleet_steady 2);
  Alcotest.(check bool) "seed changes campaign inputs" true
    (d W.Campaign_matrix 1 <> d W.Campaign_matrix 2);
  Alcotest.(check string) "seed leaves gateheavy inputs alone"
    (d W.Gateheavy 1) (d W.Gateheavy 2)

let () =
  (* dune runs tests in the build copy of this directory; the repo-root
     files the benchmark reads sit one level up.  Run by hand from the
     repository root, it stays there. *)
  if not (Sys.file_exists "BENCHMARK.json") then Sys.chdir "..";
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "names and units" `Quick test_names;
          Alcotest.test_case "end-to-end bounds" `Quick test_bounds;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "ledger emits declared names" `Quick test_ledger_names;
        ] );
      ("inputs", [ Alcotest.test_case "seed reach" `Quick test_seed_inputs ]);
    ]
