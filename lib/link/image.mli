(** Linked firmware image: binary chunks, symbol table, entry point. *)

type t = private {
  chunks : (int * Bytes.t) list;
      (** (base address, contents), pairwise disjoint: no address lies
          in two chunks.  {!make} and {!with_chunks} reject overlapping
          chunks (the linker already rejects overlapping sections), and
          {!make_fetch} relies on it to read a word from the chunk of
          its last read without a walk. *)
  symbols : (string * int) list;
  table : (string, int) Hashtbl.t;
      (** the linker's name -> address table, one binding per name;
          [symbols] lists exactly its bindings.  Nothing writes it
          after {!make}, so an image is safe to share across domains
          and an image derived by {!with_chunks} or {!with_notes}
          shares it. *)
  entry : int;
  notes : (string * string) list;
      (** free-form certification metadata attached after linking,
          e.g. ["cert.gates.<app>"] -> comma-separated service names *)
}

val make :
  chunks:(int * Bytes.t) list ->
  table:(string, int) Hashtbl.t ->
  entry:int ->
  t
(** The image of a link, without notes.  It takes ownership of
    [table], whose names must each be bound once; [symbols] is the
    table's bindings in [Hashtbl.fold] order.
    @raise Invalid_argument when two chunks overlap. *)

val symbol : t -> string -> int
(** Constant time, from {!t.table}.
    @raise Not_found when the symbol is undefined. *)

val has_symbol : t -> string -> bool
(** Constant time, from {!t.table}. *)

val note : t -> string -> string option
(** Look up a metadata note by key. *)

val with_notes : t -> (string * string) list -> t

val with_chunks : t -> (int * Bytes.t) list -> t
(** The image with its chunks replaced, e.g. by a patched copy; the
    symbols, entry point and notes stay.
    @raise Invalid_argument when two chunks overlap. *)

val make_fetch : t -> int -> int
(** Word fetch over the chunks (0 outside any chunk, and for a word that
    straddles two).  It keeps the chunk of its last read, one immutable
    value, and walks the list only when a read leaves it (a campaign
    pass makes 115 k reads and 766 walks). *)

val load : t -> Amulet_mcu.Machine.t -> unit
(** Blit all chunks into machine memory and point the reset vector at
    the entry symbol.  Does not reset the machine. *)

val total_bytes : t -> int

val span : t -> string -> (int * int) option
(** [span t name] is the half-open address range [\[addr, next)] from
    the symbol to the next strictly-greater symbol in the same chunk
    (or the chunk end).  [None] when the symbol is undefined. *)

val nearest_symbol : t -> int -> (string * int) option
(** Greatest symbol at or below an address (skipping [..__end]
    markers) — used to name the code that owns a PC. *)

val pp_symbols : Format.formatter -> t -> unit
