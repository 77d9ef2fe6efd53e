(** Adversarial corpus: parameterized malicious applications at source
    level (WearC the toolchain compiles, guards and all) and at binary
    level (hand-encoded payloads patched over a benign app's handler
    after the AFT has produced the image — modelling a compromised or
    bypassed toolchain).

    Every attack carries its expected containment layer per isolation
    mode; the campaign driver runs each attack under all four modes
    and checks the observed outcome cell-by-cell.  Expectations are
    honest about the negative results the paper leans on: binary-level
    attacks defeat software-only isolation, MPU granularity
    over-permits the slack bytes of a 1 KiB-rounded segment, and the
    primitive MPU cannot protect its own configuration registers from
    code that knows the password. *)

type level = Source | Binary

type position = First | Last
(** Attacker's link order relative to the victim: [First] places the
    attacker's segments below the victim's (so wild writes upward hit
    MPU segment 3), [Last] places it above (wild writes downward are
    caught by the lower-bound check in both checked modes). *)

(** The layer expected to contain (or fail to contain) the attack. *)
type layer =
  | L_build  (** rejected at compile time (feature checks) *)
  | L_guard  (** a compiler-inserted check faults *)
  | L_mpu  (** the MPU raises a hardware violation *)
  | L_gate  (** the kernel's gate pointer validation rejects it *)
  | L_kernel  (** contained by the machine/kernel (unmapped, runaway) *)
  | L_none  (** breach expected — the mode does not stop this attack *)
  | L_harmless
      (** tolerated leak: the write lands in memory the mode's policy
          over-permits (1 KiB slack, shared SRAM stack) *)

val layer_name : layer -> string

(** Expected static-certifier verdict ([amulet lint]) for the built
    attack image, per mode. *)
type lint_expect = Must_reject | Must_accept | Either

(** Concrete addresses an attack aims at, resolved from a linked
    firmware.  Source-level attacks build twice: once with
    {!placeholder_targets} to fix the layout, then with the resolved
    addresses (all placeholder and real values encode as extension
    words, so the layout cannot shift between phases). *)
type targets = {
  t_os_slot : int;  (** an OS kernel data word ([__os_sp_save]) *)
  t_os_entry : int;  (** OS code entry ([__os_start]) *)
  t_victim_canary : int;  (** first word of the victim's canary array *)
  t_victim_entry : int;  (** victim's [handle_button] *)
  t_victim_limit : int;  (** victim's [data_limit] (MPU B2 rebound) *)
  t_sram : int;  (** a word inside the SRAM OS stack *)
  t_self_below : int;  (** attacker's [data_base - 2] (own code) *)
  t_self_slack : int;  (** attacker's [data_limit - 2] (slack bytes) *)
}

val placeholder_targets : targets

val attack_value : int
(** The 16-bit value every write attack stores, checked on readback. *)

type t = {
  atk_name : string;
  atk_level : level;
  atk_descr : string;
  atk_position : position;
  atk_source : (targets -> string) option;  (** [Source] attacks *)
  atk_payload : (targets -> Amulet_mcu.Opcode.t list) option;
      (** [Binary] attacks: instructions patched over the carrier's
          [handle_timer]; must end by returning or branching away *)
  atk_target : targets -> int option;
      (** address whose readback ([= attack_value]) marks success *)
  atk_expect : Amulet_cc.Isolation.mode -> layer;
  atk_lint : Amulet_cc.Isolation.mode -> lint_expect;
}

val corpus : t list
val find : string -> t
(** @raise Not_found *)

val resolve_targets :
  Amulet_aft.Aft.firmware -> attacker:string -> targets

(** Outcome of constructing one campaign cell's firmware. *)
type built =
  | Rejected of string
      (** the toolchain refused the attacker at compile time *)
  | Built of {
      fw : Amulet_aft.Aft.firmware;
      attacker : string;  (** attacker app prefix in the image *)
      victim : string;
      targets : targets;
    }

type base
(** What the cells of one mode share: the compiled victim, the OS of
    each order its source cells link (attacker first or last), and the
    benign [carrier; victim] firmware every binary attack patches.
    Each compiled app and OS is made once, under the base's lock, the
    first time a cell needs it, so the base makes only what its cells
    use; none is written after it is made.  A cell patches a copy of
    the one chunk its payload lands in.  So cells on parallel domains
    may share a base. *)

val base : Amulet_cc.Isolation.mode -> t list -> base
(** The base for cells of [mode] drawn from the given attacks: it
    compiles the carrier and links the carrier firmware, once, when
    one of them is binary. *)

val base_firmware : base -> Amulet_aft.Aft.firmware option
(** The unpatched carrier firmware, when the base has one.  A payload
    rewrites only the carrier's [handle_timer], so whatever an analysis
    derives from the victim section, the OS code or the image notes is
    the same on every patched copy. *)

val base_apps : base -> Amulet_aft.Aft.compiled * Amulet_aft.Aft.compiled
(** The mode's compiled victim and carrier (each compiled at most once
    per base), for other firmwares that link them. *)

val build_on : base -> attack:t -> built
(** Build the two-app firmware for one cell of the base's mode.  A
    source attack builds in two phases (the placeholder phase
    uncertified); each compiles the attacker alone and links it with
    the base's victim and OS.  A binary attack patches its payload over
    a copy of the base's carrier firmware.
    @raise Failure if a binary payload does not fit in the carrier's
    handler or the two source phases disagree on layout;
    @raise Invalid_argument for a binary attack on a base built without
    one. *)

val build_cell : attack:t -> mode:Amulet_cc.Isolation.mode -> built
(** [build_on (base mode [ attack ]) ~attack]: one cell on its own. *)
