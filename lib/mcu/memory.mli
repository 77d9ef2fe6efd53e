(** Flat 64 KiB backing store for the simulated address space.

    This module is a raw byte store: permission checks, MMIO dispatch
    and region semantics live in {!Machine}.  Word accesses are
    little-endian; an odd word address is aligned down, as on the real
    MSP430 CPU. *)

type t

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
    compares one state byte per access, as it does for code
    watching. *)

type snapshot

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
    loop compares generations (one integer) per block, and only walks
    {!take_dirty_code} when something actually changed. *)

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
