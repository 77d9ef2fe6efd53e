(** Flat 64 KiB backing store for the simulated address space.

    The bytes, plus the books two features keep per 256 B page: which
    pages hold predecoded code (code-write tracking) and which were
    written since the last {!snapshot}.  Permission checks, MMIO
    dispatch and region semantics live in {!Machine}.  Word accesses
    are little-endian; an odd word address is aligned down, as on the
    real MSP430 CPU. *)

type snapshot
(** The contents {!restore} returns to (see "Snapshot and restore"). *)

type t = private {
  data : Bytes.t;  (** the 64 KiB, address [a] at index [a] *)
  state : Bytes.t;
      (** one state byte per 256 B page: bit 0 "watched" (the page
          holds predecoded code), bit 1 "written" (since the last
          {!snapshot} or {!restore}) *)
  written : Bytes.t;
      (** the page numbers whose written bit is set, first write
          first; [nwritten] of them are live *)
  mutable nwritten : int;
  mutable base : snapshot;  (** the latest snapshot *)
  mutable code_gen : int;  (** see {!code_gen} *)
  mutable dirty : (int * int) list;  (** see {!take_dirty_code} *)
}
(** Fields are read-only outside this module, and only its functions
    change the books ([state], [written], [nwritten], [code_gen],
    [dirty]).  The machine reads [data], [state] and [code_gen] on its
    hot paths without a call, and stores without one under one rule:

    - a store into a page whose state byte is {!written_only} needs no
      bookkeeping: it may set the bytes of [data] directly;
    - every other store goes through {!write}, which keeps the
      books. *)

val written_only : char
(** The state byte of a page written since the last snapshot or
    restore and not watched. *)

val create : unit -> t
(** A zero-filled 64 KiB memory. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val read_word : t -> int -> int
val write_word : t -> int -> int -> unit

val read : t -> Word.width -> int -> int
val write : t -> Word.width -> int -> int -> unit

val blit : t -> addr:int -> bytes -> unit
(** Copy a byte string into memory starting at [addr]. *)

val blit_words : t -> addr:int -> int list -> unit
(** Store a list of 16-bit words starting at [addr]. *)

val fill : t -> addr:int -> len:int -> value:int -> unit

val copy : t -> t
(** Deep copy.  The copy starts with fresh code-write tracking (no
    watched pages, no pending spans) and shares the original's latest
    {!snapshot}, which can be restored into either. *)

val equal : t -> t -> bool
(** Byte-for-byte content equality (tracking state is ignored). *)

(** {2 Snapshot and restore}

    Each 256 B page carries a "written" bit, set by its first write
    since the last {!snapshot} or {!restore}.  A snapshot keeps only
    the pages ever written (a booted image costs a few KiB, not
    64 KiB); a restore copies back, or zeroes, only the pages written
    since.  The bits cost the data path nothing: the write path
    compares one state byte per access with {!written_only}, as it
    does for code watching. *)

val snapshot : t -> snapshot
(** The current contents, which become the reference for {!restore}
    and {!unchanged}.  Clears the written bits. *)

val restore : t -> snapshot -> unit
(** Put back the contents [snapshot] was taken with, touching only the
    pages written since it or the last restore, and clear their
    written bits.  A restored page that is watched is queued as a
    dirty code span, so the blocks decoded there are flushed before
    the next one runs; every other block stays valid.
    @raise Invalid_argument unless [snapshot] is this memory's
    latest. *)

val unchanged : t -> lo:int -> hi:int -> bool
(** No byte in [\[lo, hi)] differs from the latest snapshot.  Compares
    only the pages written since the last snapshot or restore; every
    other page is equal by construction. *)

(** {2 Code-write tracking}

    Support for the machine's predecoded-block cache.  The machine
    watches every byte span it predecodes; writes landing in a watched
    256 B page bump {!code_gen} and queue a dirty span.  The dispatch
    loop compares the generation field with the one its block started
    under once per uop, and only walks {!take_dirty_code} when
    something actually changed. *)

val code_gen : t -> int
(** Monotonic counter, bumped by every write into a watched page and
    by a {!restore} of one. *)

val watch_code_span : t -> lo:int -> hi:int -> unit
(** Mark the pages covering byte range [\[lo, hi)] as containing
    predecoded code. *)

val take_dirty_code : t -> (int * int) list
(** Return and clear the queued [(addr, len)] spans written into
    watched pages since the last call. *)

val clear_code_watches : t -> unit
(** Drop all watched pages and pending spans (machine reset).  The
    written bits stay: a snapshot after reset still holds the image. *)
