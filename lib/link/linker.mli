(** Linker: places laid-out sections, builds the global symbol table,
    resolves and emits the firmware image.

    Every section automatically defines [<name>__start] and
    [<name>__end] symbols — the AFT uses these as the app boundary
    constants that phase 4 patches into the compiler-inserted checks,
    and as {!Asm.Border}s into the stubs' MPU configurations.

    The image keeps the table the linker resolves against
    ({!Image.make}), so looking a symbol up by name is constant time
    for every later pass. *)

exception Error of string

type placed_section = { name : string; base : int; layout : Assembler.layout }

val link :
  ?extra_symbols:(string * int) list ->
  entry:string ->
  placed_section list ->
  Image.t
(** @raise Error on duplicate or undefined symbols, overlapping
    sections, or jump-range failures. *)
