(** Priority queue of pending events, ordered by virtual time with
    FIFO tie-breaking: a binary heap in a growable array, keyed by
    [(at, seq)].  A push allocates only its event (and, when the array
    is full, a new one of twice the size); a pop only the [Some].
    [test/support/ref_queue.ml] keeps the leftist heap it replaced as
    the reference test_os checks it against. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val push : t -> at:int -> app:int -> Event.kind -> arg:int -> unit
(** Enqueue; assigns the FIFO sequence number. *)

val pop : t -> Event.t option
val peek : t -> Event.t option

val clear_app : t -> int -> unit
(** Drop every pending event destined for one app (used when an app is
    disabled after a fault). *)
