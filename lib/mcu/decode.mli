(** Binary decoding of machine words back into {!Opcode.t}.

    Constant-generator encodings decode to canonical immediates
    ([S_immediate] normalized to the operation width), so
    [decode (encode i) = i] for canonically-formed instructions. *)

exception Illegal of int
(** Raised with the offending word when no instruction matches, and
    with the first word for the forms {!Encode} refuses: byte-mode
    SWPB/SXT/CALL, RRC/RRA/SWPB/SXT of an immediate or constant
    generator, and an [x(R3)] destination.  Every word [decode]
    accepts therefore re-encodes and executes. *)

val decode : fetch:(int -> int) -> addr:int -> Opcode.t * int
(** [decode ~fetch ~addr] reads the instruction starting at [addr]
    ([fetch] returns the 16-bit word at a byte address) and returns it
    with its size in bytes. *)

val decode_words : int list -> Opcode.t * int
(** Decode from a word list (for tests). *)
