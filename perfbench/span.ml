(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer, timed from the benchmark's own
   code: name, start, end, the enclosing span, and a group id shared
   by every span of one device, cell or mode batch.  Spans stay in
   memory while the workload runs and are written out as JSONL once
   it ends, so the recorder never does I/O inside a timed region. *)

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  name : string;
  group : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable closed : span list;  (* most recent first *)
  mutable open_ : (int * string * int * int64) list;  (* id, name, group, start *)
  mutable next : int;
}

let create () = { closed = []; open_ = []; next = 0 }
let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) /. 1e9

let enter t ~name ~group =
  let id = t.next in
  t.next <- id + 1;
  t.open_ <- (id, name, group, now_ns ()) :: t.open_;
  id

(* Closes the innermost open span, which must be [id]; returns its
   duration in nanoseconds. *)
let leave t id =
  let stop_ns = now_ns () in
  match t.open_ with
  | (id', name, group, start_ns) :: rest when id' = id ->
    t.open_ <- rest;
    let parent = match rest with (p, _, _, _) :: _ -> p | [] -> -1 in
    t.closed <- { id; parent; name; group; start_ns; stop_ns } :: t.closed;
    Int64.sub stop_ns start_ns
  | _ -> invalid_arg "Span.leave: spans must close innermost first"

let with_ t ~name ~group f =
  let id = enter t ~name ~group in
  let r = f () in
  ignore (leave t id);
  r

let spans t = List.rev t.closed
let dur_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time: a span's duration minus the part its direct children
   cover.  Children never overlap (single domain, strict nesting), so
   the covered part is the sum of their durations. *)
let self_ns spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  fun s -> dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

let write_jsonl path spans =
  let self = self_ns spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"group\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%.0f}\n"
        s.id s.parent s.name s.group s.start_ns s.stop_ns (self s))
    spans;
  close_out oc
