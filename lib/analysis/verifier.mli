(** Independent SFI verifier for linked application images.

    The compiler inserts bounds checks ({!Amulet_cc.Codegen}) and the
    range analysis ({!Range}) elides the provably redundant ones; both
    live inside the toolchain's trusted computing base.  This module
    shrinks that TCB: it disassembles an application's linked code
    section with the simulator's own {!Amulet_mcu.Decode} and checks
    the isolation invariant directly on the machine code, with no
    knowledge of how the image was produced.  A firmware passes only
    if every memory access and control transfer in app code is either

    - statically inside the app's own region (frame/stack-relative, or
      an absolute address inside the linker-resolved data section),
    - dominated by the mode-required guard sequence against the
      section-bound symbols (the [CMP]/[Jcc] pair the compiler emits,
      or a [__bounds_check] helper call in Feature-Limited mode), or
    - an access the platform explicitly sanctions (debug ports, the
      InfoMem shadow stack maintained with the trusted pattern).

    The analysis is a standard abstract interpretation over unsigned
    16-bit intervals: conditional branches refine the compared
    register (or the return-address word at [0(SP)]), so the
    compiler's guard instructions — and nothing else — establish the
    facts that let a dynamic store through.  Elided guards verify
    because the address computation itself (masked index plus a linked
    global base) already confines the interval to the data section.

    Assumptions that remain in the TCB are listed in DESIGN.md:
    control only enters app code at symbol-named function entries, and
    frame discipline for R4/SP-relative accesses. *)

type violation = {
  vaddr : int;  (** address of the offending instruction *)
  vtext : string;  (** disassembled instruction *)
  vreason : string;
}

type stats = {
  v_insns : int;  (** distinct instructions verified *)
  v_blocks : int;  (** basic-block entry states explored *)
  v_stores : int;  (** dynamic stores proven in-region *)
  v_loads : int;  (** dynamic loads proven in-region *)
  v_branches : int;  (** indirect calls/branches proven in-section *)
  v_rets : int;  (** returns covered by a return-address guard *)
}

val verify :
  Section.t -> mode:Amulet_cc.Isolation.mode -> (stats, violation list) result
(** Verify the app code section [\[code_lo, code_hi)] against [mode]'s
    isolation policy.  Under [No_isolation] every image is accepted. *)

val verify_app :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  (stats, violation list) result
(** [verify (Section.make image ~prefix) ~mode].
    @raise Invalid_argument when the image lacks the section-bound
    symbols for [prefix]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_stats : Format.formatter -> stats -> unit
