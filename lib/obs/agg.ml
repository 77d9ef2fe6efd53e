type counter_state = {
  cs_hist : Hist.t;
  mutable cs_last : int;
  mutable cs_last_ts : int;
  mutable cs_max : int;
}

type t = {
  span_tbl : (string * string, Hist.t) Hashtbl.t;
  counter_tbl : (string, counter_state) Hashtbl.t;
  instant_tbl : (string * string, int ref) Hashtbl.t;
  mutable fault_list : (int * string) list; (* reversed, capped *)
  mutable fault_total : int;
  mutable nrecords : int;
  mutable t_min : int;
  mutable t_max : int;
}

let fault_cap = 32

let create () =
  {
    span_tbl = Hashtbl.create 16;
    counter_tbl = Hashtbl.create 8;
    instant_tbl = Hashtbl.create 8;
    fault_list = [];
    fault_total = 0;
    nrecords = 0;
    t_min = max_int;
    t_max = min_int;
  }

let span_state t key =
  match Hashtbl.find_opt t.span_tbl key with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add t.span_tbl key h;
    h

let counter_state t name =
  match Hashtbl.find_opt t.counter_tbl name with
  | Some c -> c
  | None ->
    let c =
      { cs_hist = Hist.create (); cs_last = 0; cs_last_ts = min_int; cs_max = min_int }
    in
    Hashtbl.add t.counter_tbl name c;
    c

let see_ts t ts =
  if ts < t.t_min then t.t_min <- ts;
  if ts > t.t_max then t.t_max <- ts

let add t r =
  t.nrecords <- t.nrecords + 1;
  see_ts t (Obs.record_ts r);
  match r with
  | Obs.Span { name; cat; ts; dur; _ } ->
    see_ts t (ts + dur);
    Hist.record (span_state t (cat, name)) dur
  | Obs.Counter { name; ts; value } ->
    let c = counter_state t name in
    Hist.record c.cs_hist value;
    if value > c.cs_max then c.cs_max <- value;
    if ts >= c.cs_last_ts then begin
      c.cs_last <- value;
      c.cs_last_ts <- ts
    end
  | Obs.Instant { name; cat; ts; _ } ->
    let key = (cat, name) in
    (match Hashtbl.find_opt t.instant_tbl key with
    | Some n -> incr n
    | None -> Hashtbl.add t.instant_tbl key (ref 1));
    if name = "fault" then begin
      t.fault_total <- t.fault_total + 1;
      if t.fault_total <= fault_cap then
        t.fault_list <-
          (ts, Option.value ~default:"(no message)" (Obs.str_arg r "message"))
          :: t.fault_list
    end

let sink t = { Obs.output = add t; close = (fun () -> ()) }

let merge a b =
  let t = create () in
  let fold_spans src =
    Hashtbl.iter
      (fun key h ->
        match Hashtbl.find_opt t.span_tbl key with
        | Some h0 -> Hashtbl.replace t.span_tbl key (Hist.merge h0 h)
        (* merge with an empty histogram to copy: the result must not
           alias (and later mutate) either argument's state *)
        | None -> Hashtbl.add t.span_tbl key (Hist.merge (Hist.create ()) h))
      src.span_tbl
  in
  let fold_counters src =
    Hashtbl.iter
      (fun name c ->
        match Hashtbl.find_opt t.counter_tbl name with
        | Some c0 ->
          Hashtbl.replace t.counter_tbl name
            {
              cs_hist = Hist.merge c0.cs_hist c.cs_hist;
              cs_last = (if c.cs_last_ts >= c0.cs_last_ts then c.cs_last else c0.cs_last);
              cs_last_ts = max c0.cs_last_ts c.cs_last_ts;
              cs_max = max c0.cs_max c.cs_max;
            }
        | None ->
          Hashtbl.add t.counter_tbl name
            { c with cs_hist = Hist.merge (Hist.create ()) c.cs_hist })
      src.counter_tbl
  in
  let fold_instants src =
    Hashtbl.iter
      (fun key n ->
        match Hashtbl.find_opt t.instant_tbl key with
        | Some n0 -> n0 := !n0 + !n
        | None -> Hashtbl.add t.instant_tbl key (ref !n))
      src.instant_tbl
  in
  fold_spans a;
  fold_spans b;
  fold_counters a;
  fold_counters b;
  fold_instants a;
  fold_instants b;
  let faults =
    List.sort compare (List.rev_append a.fault_list b.fault_list)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  t.fault_list <- List.rev (take fault_cap faults);
  t.fault_total <- a.fault_total + b.fault_total;
  t.nrecords <- a.nrecords + b.nrecords;
  t.t_min <- min a.t_min b.t_min;
  t.t_max <- max a.t_max b.t_max;
  t

let records t = t.nrecords
let time_range t = if t.nrecords = 0 then None else Some (t.t_min, t.t_max)

let spans t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.span_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type counter = { c_hist : Hist.t; c_last : int; c_last_ts : int; c_max : int }

let snapshot c =
  { c_hist = c.cs_hist; c_last = c.cs_last; c_last_ts = c.cs_last_ts; c_max = c.cs_max }

let counter t name = Option.map snapshot (Hashtbl.find_opt t.counter_tbl name)

let counters t =
  Hashtbl.fold (fun name c acc -> (name, snapshot c) :: acc) t.counter_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let instants t =
  Hashtbl.fold (fun k n acc -> (k, !n) :: acc) t.instant_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let faults t = List.rev t.fault_list
let fault_count t = t.fault_total
