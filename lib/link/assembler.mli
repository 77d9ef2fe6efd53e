(** Two-pass assembler for one section.

    Pass 1 ({!layout}) places every item without resolving symbols:
    operand sizes depend only on addressing modes, and immediates
    holding symbols are always given an extension word.  Pass 2
    ({!emit}) lowers to machine words once every symbol has an address.

    Conditional and unconditional jumps whose in-section target is
    beyond the format-III +/-512-word range are relaxed to long forms
    ([BR #addr], or a short hop over a [BR]) while laying out; sizing
    iterates to a fixpoint.  The layout is computed once and
    {!size}, {!labels} and {!emit} are views of it. *)

exception Error of string

type layout
(** A section after relaxation: its items with their offsets, its
    labels and its size. *)

val layout : Asm.item list -> layout
(** @raise Error on duplicate labels within the section. *)

val size : layout -> int
(** Section size in bytes. *)

val labels : layout -> (string * int) list
(** Offsets of the labels defined in the section, in definition
    order, including the labels jump relaxation introduces. *)

val emit : base:int -> resolve:(string -> int) -> layout -> Bytes.t
(** Binary for a section placed at [base].  [resolve] maps any symbol
    (local or global) to its absolute address.
    @raise Error on out-of-range jumps or undefined symbols
    (propagated as [Error] with the symbol name). *)
