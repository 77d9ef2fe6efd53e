(** The binary certifier's one worklist fixpoint.  The SFI verifier,
    the stack bound, gate provenance and {!Loopbound}'s dominator sets
    iterate here; each pass keeps only its domain, transfer, widening
    and what it observes along the way. *)

val solve :
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  widen:(int -> joins:int -> old:'a -> 'a -> 'a) ->
  transfer:(int -> 'a -> (int * 'a) list) ->
  (int * 'a) list ->
  (int, 'a) Hashtbl.t
(** The state of every address reachable from the entries (each an
    address and its incoming state), where [transfer a s] gives the
    states [a]'s successors receive.  An address stores its first
    incoming state and joins each later one in ([join old s]); the
    [n]th join that changes address [a] stores
    [widen a ~joins:n ~old joined] instead.  Each change queues the
    address again, first in, first out.  No state is mutated, so
    [transfer] may share one value among successors, and must not
    mutate its argument.

    The table is a post-fixpoint (joining any state [transfer] gives
    an address into that address's state changes nothing) only if
    every widening goes up: [widen] must return a [v] with
    [join v joined = v].  A widening that drops below the joined state
    loses what was joined in; the pass then proves facts of paths it
    never saw, or never ends. *)
