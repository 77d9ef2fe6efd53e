(* A binary min-heap in a growable array, ordered by (at, seq).  Keys
   are unique (seq is), so any correct heap pops the same sequence. *)

type t = {
  mutable heap : Event.t array;  (* heap.(0 .. size - 1); root at 0 *)
  mutable size : int;
  mutable seq : int;
}

(* Fills the slots past [size], so they hold no popped event. *)
let vacant = { Event.at = 0; seq = 0; app = 0; kind = Event.Tick; arg = 0 }

let create () = { heap = [||]; size = 0; seq = 0 }
let is_empty t = t.size = 0
let size t = t.size

let before (a : Event.t) (b : Event.t) =
  a.Event.at < b.Event.at || (a.Event.at = b.Event.at && a.Event.seq < b.Event.seq)

(* Move [e] up from slot [i] to where its parent is before it. *)
let rec sift_up h i e =
  let p = (i - 1) / 2 in
  if i > 0 && before e h.(p) then begin
    h.(i) <- h.(p);
    sift_up h p e
  end
  else h.(i) <- e

(* Move [e] down from slot [i] of a heap of [n] until no child is
   before it. *)
let rec sift_down h n i e =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- e
  else
    let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
    if before h.(c) e then begin
      h.(i) <- h.(c);
      sift_down h n c e
    end
    else h.(i) <- e

let add t (e : Event.t) =
  if t.size = Array.length t.heap then begin
    let h = Array.make (Int.max 16 (2 * t.size)) vacant in
    Array.blit t.heap 0 h 0 t.size;
    t.heap <- h
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) e

let push t ~at ~app kind ~arg =
  let e = { Event.at; seq = t.seq; app; kind; arg } in
  t.seq <- t.seq + 1;
  add t e

let pop t =
  if t.size = 0 then None
  else begin
    let h = t.heap in
    let top = h.(0) in
    let n = t.size - 1 in
    t.size <- n;
    let last = h.(n) in
    h.(n) <- vacant;
    if n > 0 then sift_down h n 0 last;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.heap.(0)

let clear_app t app =
  let h = t.heap and n = t.size in
  t.size <- 0;
  for i = 0 to n - 1 do
    let e = h.(i) in
    h.(i) <- vacant;
    if e.Event.app <> app then add t e
  done
