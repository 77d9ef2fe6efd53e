(** Binary-level CFI certification.

    Reconstructs the per-function control-flow graph of an app's
    linked code section from the instruction stream (the link map,
    read through {!Section}, only delimits function spans) and proves
    every control transfer stays inside the app:

    - relative jumps land on instruction boundaries of their own
      function; [BR #imm] may additionally target another span entry
      (fault stubs) or a sanctioned external;
    - [CALL #imm] targets a function entry or a sanctioned external;
    - [CALL Rn] is structurally dominated by the mode's code-bounds
      guard on [Rn]; [RET] by the return-address guard (or shadow
      compare) in modes that check returns;
    - every other PC-writing instruction is a computed jump and is
      rejected with the offending instruction as witness.

    The resulting CFG carries per-block cycle counts (for
    [amulet objdump --cfg]) and is the substrate for the binary
    stack-bound ({!Stackcert}) and gate-provenance ({!Gate_taint})
    passes. *)

type violation = {
  cv_addr : int;  (** address of the offending instruction *)
  cv_text : string;  (** disassembled instruction (witness) *)
  cv_reason : string;
}

type insn = { i_addr : int; i_op : Amulet_mcu.Opcode.t; i_size : int }

type edge =
  | E_fall  (** conditional fall-through *)
  | E_taken  (** conditional taken — the edge a guard proves facts on *)
  | E_jump  (** unconditional *)

type block = {
  b_addr : int;
  b_insns : insn list;
  b_cycles : int;  (** sum of the block's instruction cycle costs *)
  mutable b_succs : (int * edge) list;
}

type func = {
  f_name : string;
  f_entry : int;
  f_limit : int;
  f_stub : bool;  (** fault/exit stub, not a compiled function *)
  f_blocks : block list;
}

type callee =
  | C_local of string
  | C_helper of string
  | C_gate of string
      (** service name ({!Amulet_cc.Apis.service_of_gate_label}) *)
  | C_indirect

type t = {
  cf_section : Section.t;  (** the link-map facts the CFG was built from *)
  cf_mode : Amulet_cc.Isolation.mode;
  cf_funcs : func list;
  cf_insns : int;
  cf_entry_of : (int, string) Hashtbl.t;
  cf_stub_of : (int, string) Hashtbl.t;
  cf_addr_taken : string list;
      (** functions whose entry address escapes into a register or the
          data section — the possible targets of any indirect call *)
}

val of_section :
  Section.t -> mode:Amulet_cc.Isolation.mode -> (t, violation list) result
(** @raise Invalid_argument when the section has no function symbol. *)

val reconstruct :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  (t, violation list) result
(** [of_section (Section.make image ~prefix)].
    @raise Invalid_argument when the image lacks the section-bound
    symbols or any function symbol for [prefix]. *)

val call_target : t -> Amulet_mcu.Opcode.t -> callee option
(** Classify a [CALL] instruction's target ([None] for non-calls). *)

val functions : t -> func list
(** Compiled functions only (stubs filtered out). *)

val find_function : t -> string -> func option
val pp_violation : Format.formatter -> violation -> unit
val pp_cfg : Format.formatter -> t -> unit
