let records_of_json j =
  let arr =
    match Json.member "traceEvents" j with
    | Some (Json.Arr xs) -> xs
    | _ -> ( match j with Json.Arr xs -> xs | _ -> [ j ])
  in
  List.filter_map Obs.record_of_json arr

let of_string text =
  let trimmed = String.trim text in
  let jsonl () =
    (* JSONL: one record per non-empty line *)
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" then None
           else Obs.record_of_json (Json.parse line))
  in
  if trimmed = "" then []
  else if trimmed.[0] = '{' then
    (* either one Chrome trace document or a JSONL stream (which also
       starts with '{' but fails to parse as a single value) *)
    match Json.parse trimmed with
    | j -> records_of_json j
    | exception Json.Parse_error _ -> jsonl ()
  else if trimmed.[0] = '[' then records_of_json (Json.parse trimmed)
  else jsonl ()

(* ------------------------------------------------------------------ *)
(* Aggregation: everything flows through Agg/Hist, so the only state
   proportional to trace length is the histogram buckets. *)

let aggregate records =
  let agg = Agg.create () in
  List.iter (Agg.add agg) records;
  agg

(* Streaming reader.  A JSONL trace is folded record by record; only
   when the first line is not a self-contained record (Chrome format:
   one document, possibly pretty-printed over many lines) is the whole
   input slurped and parsed as a single value. *)
let agg_of_channel ic =
  let agg = Agg.create () in
  let leftover = Buffer.create 256 in
  let streamed = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let trimmed = String.trim line in
       if trimmed <> "" then begin
         match Json.parse trimmed with
         | j -> (
           match Obs.record_of_json j with
           | Some r ->
             incr streamed;
             Agg.add agg r
           | None ->
             (* a parseable line that is not a record: part of a
                Chrome document — stop streaming and slurp the rest *)
             Buffer.add_string leftover line;
             Buffer.add_char leftover '\n';
             raise Exit)
         | exception Json.Parse_error _ ->
           Buffer.add_string leftover line;
           Buffer.add_char leftover '\n';
           raise Exit
       end
     done
   with
  | End_of_file -> ()
  | Exit -> (
    try
      while true do
        Buffer.add_channel leftover ic 4096
      done
    with End_of_file -> ()));
  if Buffer.length leftover > 0 then begin
    if !streamed > 0 then
      (* mixed input: JSONL records followed by garbage *)
      raise (Json.Parse_error "trailing non-record data in JSONL trace");
    List.iter (Agg.add agg) (of_string (Buffer.contents leftover))
  end;
  agg

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_agg ppf agg =
  Format.fprintf ppf "%d records" (Agg.records agg);
  (match Agg.time_range agg with
  | Some (lo, hi) ->
    Format.fprintf ppf ", cycles %d..%d (%d elapsed)" lo hi (hi - lo)
  | None -> ());
  Format.fprintf ppf "@.";
  let spans =
    Agg.spans agg
    |> List.sort (fun (_, a) (_, b) -> compare (Hist.sum b) (Hist.sum a))
  in
  if spans <> [] then begin
    Format.fprintf ppf "@.spans (by total cycles):@.";
    Format.fprintf ppf "  %-12s %-24s %8s %12s %10s %8s %8s %10s@." "category"
      "name" "count" "total" "avg" "p50" "p99" "max";
    List.iter
      (fun ((cat, name), h) ->
        Format.fprintf ppf "  %-12s %-24s %8d %12d %10.1f %8d %8d %10d@." cat
          name (Hist.count h) (Hist.sum h) (Hist.mean h) (Hist.quantile h 0.5)
          (Hist.quantile h 0.99) (Hist.max_value h))
      spans
  end;
  let counters = Agg.counters agg in
  if counters <> [] then begin
    Format.fprintf ppf "@.counters:@.";
    List.iter
      (fun (name, c) ->
        Format.fprintf ppf "  %-24s max %d, final %d, p50 %d, p99 %d@." name
          c.Agg.c_max c.Agg.c_last
          (Hist.quantile c.Agg.c_hist 0.5)
          (Hist.quantile c.Agg.c_hist 0.99))
      counters
  end;
  let instants = Agg.instants agg in
  if instants <> [] then begin
    Format.fprintf ppf "@.instants:@.";
    List.iter
      (fun ((cat, name), count) ->
        Format.fprintf ppf "  %-12s %-24s %8d@." cat name count)
      instants
  end;
  List.iter
    (fun (ts, msg) -> Format.fprintf ppf "@.FAULT at cycle %d: %s@." ts msg)
    (Agg.faults agg);
  if Agg.fault_count agg > Agg.fault_cap then
    Format.fprintf ppf "@.(%d further faults beyond the %d retained)@."
      (Agg.fault_count agg - Agg.fault_cap)
      Agg.fault_cap

let pp_report ppf records = pp_agg ppf (aggregate records)

let per_state_accounting records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | Obs.Span { name = handler; cat = "dispatch"; dur; _ } -> (
        match Obs.int_arg r "state" with
        | None -> ()
        | Some state ->
          let count, cycles, accesses =
            Option.value
              (Hashtbl.find_opt tbl (state, handler))
              ~default:(0, 0, 0)
          in
          let reads = Option.value (Obs.int_arg r "reads") ~default:0 in
          let writes = Option.value (Obs.int_arg r "writes") ~default:0 in
          Hashtbl.replace tbl (state, handler)
            (count + 1, cycles + dur, accesses + reads + writes))
      | _ -> ())
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
