(* Metric declarations and the result line.

   The declarations here and BENCHMARK.json at the repository root
   must agree (the benchmark's tests check it): the JSON file is what
   regression checks read, this table is what the program emits. *)

type better = Lower | Higher

type decl = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: allowed relative worsening *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let mode_slugs = List.map Amulet_cc.Isolation.name Amulet_cc.Isolation.all

(* Host figures get a noise bound.  The heap figure repeats exactly
   for a seed but moves by one heap increment (~7 %) between seeds.
   Simulated figures repeat exactly for a seed; the accuracy figures
   are deterministic and must not drift at all.  There is no wall-time
   metric: every iteration of a workload finishes a fixed number of
   devices and cells, so its wall time is the reciprocal of
   devices_per_s and of cells_per_s. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "devices_per_s" "1/s" Higher 0.25;
    e2e "dispatches_per_s" "1/s" Higher 0.25;
    e2e "sim_cycles_per_s" "cycles/s" Higher 0.25;
    e2e "cells_per_s" "1/s" Higher 0.25;
    e2e "sim_cycles_per_dispatch" "cycles" Lower 0.02;
    e2e "dispatch_p99_cycles" "cycles" Lower 0.02;
    e2e "heap_peak_mb" "MB" Lower 0.2;
  ]
  @ List.concat_map
      (fun m ->
        [
          e2e (Printf.sprintf "accuracy.table1.%s.ctx_switch_err_pct" m) "%" Lower 0.01;
          e2e (Printf.sprintf "accuracy.table1.%s.mem_access_err_pct" m) "%" Lower 0.01;
        ])
      mode_slugs

let per_layer =
  [
    layer "kernel.create_us" "us" Lower;
    layer "oracle.probe_us" "us" Lower;
    layer "kernel.dispatch_us_p50" "us" Lower;
    layer "kernel.dispatch_us_p99" "us" Lower;
    layer "kernel.minor_words_per_dispatch" "words" Lower;
    layer "kernel.no_handler_ratio" "ratio" Lower;
    layer "kernel.latency_p99_cycles" "cycles" Lower;
    layer "mcu.blocks_cached_per_device" "count" Lower;
  ]
  @ List.map
      (fun m -> layer (Printf.sprintf "interp.%s.sim_cycles_per_s" m) "cycles/s" Higher)
      mode_slugs
  @ [
      layer "mpu.config_writes_per_dispatch" "count" Lower;
      layer "api.calls_per_dispatch" "count" Lower;
      layer "fleet.shard_record_us" "us" Lower;
      layer "fleet.shard_merge_us" "us" Lower;
      layer "cc.compile_ms" "ms" Lower;
      layer "aft.build_ms" "ms" Lower;
      layer "lint.run_ms" "ms" Lower;
      layer "wcet.analyze_ms" "ms" Lower;
      layer "campaign.cell_ms_p50" "ms" Lower;
      layer "campaign.cell_ms_p99" "ms" Lower;
      layer "campaign.cell_self_ms" "ms" Lower;
      layer "campaign.injection_ms" "ms" Lower;
      layer "proof.obligations_ms" "ms" Lower;
      layer "proof.crosscheck_ms" "ms" Lower;
      layer "trace.overhead_ratio" "ratio" Lower;
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let better_name = function Lower -> "lower" | Higher -> "higher"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs = List.sort compare xs

(* Nearest-rank quantile; 0 on an empty sample. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines, then the one-line JSON result, which must be
   the last line of standard output.  Every declared metric of the
   requested set is emitted, in declaration order. *)
let print ~decls r =
  List.iter
    (fun d ->
      Printf.printf "  %-52s %18.6g %s\n" d.name (List.assoc d.name r.values) d.unit_)
    decls;
  let metrics =
    List.map
      (fun d ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" d.name
          (json_number (List.assoc d.name r.values))
          d.unit_)
      decls
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)
