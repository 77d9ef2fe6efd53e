(* The reference event queue: the leftist heap [Amulet_os.Event_queue]
   was before it became a binary heap in an array.  test_os runs random
   push, pop, peek and clear_app sequences through both and requires
   the same events in the same order. *)

module Event = Amulet_os.Event

type heap = Leaf | Node of int * Event.t * heap * heap (* rank, min at root *)

type t = { mutable heap : heap; mutable seq : int; mutable count : int }

let create () = { heap = Leaf; seq = 0; count = 0 }
let size t = t.count

let before (a : Event.t) (b : Event.t) =
  a.Event.at < b.Event.at || (a.Event.at = b.Event.at && a.Event.seq < b.Event.seq)

let rank = function Leaf -> 0 | Node (r, _, _, _) -> r

let make v l r =
  if rank l >= rank r then Node (rank r + 1, v, l, r) else Node (rank l + 1, v, r, l)

let rec merge a b =
  match (a, b) with
  | Leaf, h | h, Leaf -> h
  | Node (_, va, la, ra), Node (_, vb, lb, rb) ->
    if before va vb then make va la (merge ra b)
    else make vb lb (merge rb a)

let push t ~at ~app kind ~arg =
  let e = { Event.at; seq = t.seq; app; kind; arg } in
  t.seq <- t.seq + 1;
  t.count <- t.count + 1;
  t.heap <- merge t.heap (Node (1, e, Leaf, Leaf))

let pop t =
  match t.heap with
  | Leaf -> None
  | Node (_, v, l, r) ->
    t.heap <- merge l r;
    t.count <- t.count - 1;
    Some v

let peek t = match t.heap with Leaf -> None | Node (_, v, _, _) -> Some v

let clear_app t app =
  let rec collect acc = function
    | Leaf -> acc
    | Node (_, v, l, r) -> collect (collect (v :: acc) l) r
  in
  let all = collect [] t.heap in
  let keep = List.filter (fun e -> e.Event.app <> app) all in
  t.heap <- Leaf;
  t.count <- 0;
  List.iter
    (fun (e : Event.t) ->
      t.count <- t.count + 1;
      t.heap <- merge t.heap (Node (1, e, Leaf, Leaf)))
    keep
