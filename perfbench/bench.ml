(* The repository benchmark: one workload per invocation.

     bench.exe --workload fleet_steady|gateheavy|campaign --seed N
               --seconds S --trace 0|1

   With --trace 0 it sets the workload up, warms up for three
   iterations, then repeats untraced iterations for S seconds, setting
   up nine more times along the way (setup_s is the median of the ten),
   and prints every end-to-end metric.  With --trace 1 it alternates
   untraced and traced iterations for S seconds and prints every
   per-layer metric; the spans of the last traced iteration are written
   to perfbench/out/<workload>.spans.jsonl.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics.  Any
   wrong output makes it exit 1. *)

module W = Workloads
module Mx = Metrics

let setup_reps = 10
let warmup_iters = 3
let out_dir = "perfbench/out"

let usage () =
  prerr_endline
    "usage: bench.exe --workload fleet_steady|gateheavy|campaign --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> raise (Arg.Bad "positional")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  match (List.assoc_opt !workload W.all, !seed) with
  | Some w, Some seed when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
    (w, seed, float_of_int !seconds, !trace = 1)
  | _ -> usage ()

let timed f =
  let t0 = Span.now_s () in
  let r = f () in
  (r, Span.now_s () -. t0)

(* Fixed-size warm-up, results dropped.  It is a fixed amount of work,
   not a fixed time, so the heap read after it depends on the workload
   only, not on how fast the machine was. *)
let warm_up f =
  for _ = 1 to warmup_iters do
    ignore (f ())
  done

(* Repeats [f] until [seconds] have passed and at least [min_iters]
   iterations ran. *)
let repeat ~seconds ~min_iters f =
  let t0 = Span.now_s () in
  let rec go i acc =
    if i >= min_iters && Span.now_s () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f () :: acc)
  in
  go 0 []

(* Untraced iterations for the end-to-end metrics.  The set-up runs
   once before the warm-up and [setup_reps - 1] more times spread evenly
   over the timed window (their results dropped), so a short burst of
   interference on a shared machine cannot move its median. *)
let run_end_to_end w ~seed ~seconds tally =
  let iterate setup_f iter_f =
    let (state, accuracy), first = timed setup_f in
    let iter () = iter_f state in
    warm_up iter;
    let heap_mb = Ledger.heap_peak_mb () in
    let setups = ref [ first ] and t0 = Span.now_s () in
    let setup_again () = setups := snd (timed setup_f) :: !setups in
    let samples =
      repeat ~seconds ~min_iters:3 (fun () ->
          let s = iter () in
          let done_ = List.length !setups in
          let due = float_of_int done_ *. seconds /. float_of_int setup_reps in
          if done_ < setup_reps && Span.now_s () -. t0 >= due then setup_again ();
          s)
    in
    (* a run too short to reach every slot sets up the rest now *)
    while List.length !setups < setup_reps do
      setup_again ()
    done;
    ( Ledger.end_to_end ~setup_s:(Mx.median !setups) ~heap_mb ~accuracy samples,
      List.length samples )
  in
  match w with
  | W.Fleet_steady ->
    let reference = ref None in
    iterate
      (fun () -> (W.fleet_scenario (), W.accuracy ()))
      (fun sc ->
        let s, sample = W.fleet_run sc ~seed in
        reference := Some (W.fleet_check tally s ~reference:!reference);
        sample)
  | W.Gateheavy ->
    iterate
      (fun () -> (W.gate_setup (), W.accuracy ()))
      (fun kernels -> fst (W.gate_iteration tally kernels))
  | W.Campaign_matrix ->
    iterate
      (fun () -> ((), W.accuracy ()))
      (fun () -> snd (W.campaign_run tally ~seed))

(* Alternating untraced and traced iterations for the per-layer
   metrics; every traced iteration is checked against its untraced
   twin. *)
let run_traced w ~seed ~seconds tally =
  let acc = Hashtbl.create 64 and ctr = W.counters () in
  let last = ref [] in
  let traced f =
    let tr = Span.create () in
    let r = f tr in
    let spans = Span.spans tr in
    Ledger.absorb acc spans;
    last := spans;
    r
  in
  let extra spans name =
    List.fold_left (fun a s -> if s.Span.name = name then a +. Span.dur_ns s else a) 0.0 spans
  in
  let pairs =
    match w with
    | W.Fleet_steady ->
      let sc = W.fleet_scenario () in
      let untraced () = W.fleet_check tally (fst (W.fleet_run sc ~seed)) ~reference:None in
      warm_up untraced;
      repeat ~seconds ~min_iters:1 (fun () ->
          let json, wall = timed untraced in
          let traced_json, traced_wall =
            traced (fun tr -> timed (fun () -> W.fleet_traced tr ctr sc ~seed))
          in
          W.account tally ~attempted:1
            ~failed:(if traced_json = json then 0 else 1)
            "traced fleet replay reproduces the aggregate byte for byte";
          (* the replay's separate compiler calls are measurement, not fleet work *)
          (wall, traced_wall -. (extra !last "cc.compile" /. 1e9)))
    | W.Gateheavy ->
      let kernels = W.gate_setup () in
      let traced_kernels = traced (fun tr -> W.gate_setup ~tr ()) in
      (* both kernel sets warm up alike, so iteration i of each starts
         from the same machine state *)
      let warm () =
        ignore (W.gate_iteration tally kernels);
        ignore (W.gate_iteration tally traced_kernels)
      in
      warm_up warm;
      repeat ~seconds ~min_iters:1 (fun () ->
          let s, cycles = W.gate_iteration tally kernels in
          let ts, traced_cycles =
            traced (fun tr -> W.gate_iteration ~tr ~ctr tally traced_kernels)
          in
          W.account tally ~attempted:1
            ~failed:(if cycles = traced_cycles then 0 else 1)
            "gateheavy per-mode simulated cycles identical traced and untraced";
          (s.W.wall_s, ts.W.wall_s))
    | W.Campaign_matrix ->
      warm_up (fun () -> W.campaign_run tally ~seed);
      repeat ~seconds ~min_iters:1 (fun () ->
          let s, sample = W.campaign_run tally ~seed in
          let wall = traced (fun tr -> W.campaign_traced tr tally ~seed ~reference:s) in
          (sample.W.wall_s, wall))
  in
  let overhead =
    Mx.median (List.map snd pairs) /. Mx.median (List.map fst pairs)
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Span.write_jsonl
    (Printf.sprintf "%s/%s.spans.jsonl" out_dir (W.name w))
    !last;
  (Ledger.per_layer acc ctr ~overhead, List.length pairs)

let () =
  let w, seed, seconds, trace = parse_args () in
  let tally = W.tally () in
  let values, iterations =
    if trace then run_traced w ~seed ~seconds tally
    else run_end_to_end w ~seed ~seconds tally
  in
  let decls = if trace then Mx.per_layer else Mx.end_to_end in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  let correct = tally.W.failed = 0 && finite in
  List.iter (fun p -> prerr_endline ("FAILED " ^ p)) (List.rev tally.W.problems);
  if not finite then prerr_endline "FAILED a metric is not a finite number";
  Printf.printf "%s seed %d, %s run, %d iterations over %.0f s\n" (W.name w) seed
    (if trace then "traced" else "end-to-end")
    iterations seconds;
  Mx.print ~decls
    {
      Mx.correct;
      attempted = max 1 tally.W.attempted;
      failed = tally.W.failed;
      values = List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) values;
    };
  exit (if correct then 0 else 1)
