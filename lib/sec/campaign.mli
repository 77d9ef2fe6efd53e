(** Campaign driver: every attack in {!Attacks.corpus} crossed with
    all four isolation modes, each cell run under a per-run isolation
    oracle, in parallel OCaml domains.

    {!run} goes mode by mode.  Before a mode's cells it sets up what
    they share, each part made once: the mode's proof diagnostics
    ({!Amulet_analysis.Lint.proof_diags}, folded into every cell's lint
    verdict), the attack base ({!Attacks.base}: the compiled victim and
    carrier, one OS layout per app order, and the benign carrier
    firmware every binary cell patches a copy of), and the victim's
    WCET on that firmware (a payload rewrites only the carrier's
    handler).  A source cell compiles only its attacker and links it
    with the shared parts.  The mode's injection rows share one
    victim+carrier pair linked from the base's compiled apps.  It drops
    all of it after the mode's cells and rows, so one mode's context is
    alive at a time and no cache outlives the call.  {!run_cell} and
    {!run_injection} are the same code for one cell or row, building
    the context for it alone; their results equal {!run}'s.

    The oracle watches the machine's event stream while the attacker
    is the current app and records breaches the moment they happen:

    - a write landing outside the attacker's data segment (and outside
      the shared SRAM stack in the shared-stack modes),
    - a read returned from foreign memory,
    - control leaving the attacker's code section for anything but a
      sanctioned entry (API gates, runtime helpers, [__osreturn]),
    - a store reaching the MPU's configuration registers from app
      code.

    After the run it additionally checks the victim's canary, that
    OS code still equals the booted image
    ({!Amulet_os.Kernel.os_intact}), and that the kernel can still
    dispatch to the victim
    ({!Amulet_os.Kernel.liveness_probe}). *)

(** What the cell actually did, classified from the oracle record and
    the attacker's dispatch outcome. *)
type observed =
  | O_build_rejected
  | O_guard of int  (** software check fault, reason code *)
  | O_hw_fault  (** MPU violation *)
  | O_gate_rejected  (** kernel pointer validation refused the arg *)
  | O_kernel  (** unmapped access / runaway contained by the machine *)
  | O_breach  (** oracle recorded an isolation breach *)
  | O_leak  (** no breach, but the write landed in over-permitted
                memory (slack bytes, shared stack) *)
  | O_silent  (** nothing observable happened *)

val observed_name : observed -> string

type cell = {
  cl_attack : string;
  cl_mode : Amulet_cc.Isolation.mode;
  cl_expected : Attacks.layer;
  cl_observed : observed;
  cl_match : bool;  (** observed is what the expectation table says *)
  cl_oracle_ok : bool;
      (** hard isolation invariants hold for this cell's expectation
          class (no breach when containment is promised) *)
  cl_breaches : string list;  (** first few oracle breach records *)
  cl_breach_count : int;
  cl_canary_intact : bool;
  cl_os_intact : bool;
  cl_victim_alive : bool;
  cl_lint_rejected : bool option;
      (** static certifier verdict ([None] when the cell never built) *)
  cl_lint_ok : bool;
  cl_wcet_checked : int;
      (** dispatches compared against a static WCET bound: every
          dispatch of a CFI-certified app whose handler the
          {!Amulet_analysis.Wcet} pass bounded.  0 when the oracle saw
          a breach — a run that escaped the certified CFG voids the
          premise the bound is conditional on *)
  cl_wcet_violations : int;
      (** of those, dispatches whose observed cycles exceeded the
          bound; any non-zero value means the static analysis is
          unsound and fails the campaign *)
  cl_note : string;
  cl_dispatch : Amulet_obs.Hist.t;
      (** per-dispatch cycle costs observed during the cell's run
          (every app, every handler) — empty when the build was
          rejected *)
}

(** One fault-injection run (informational rows of the campaign). *)
type injection = {
  in_mode : Amulet_cc.Isolation.mode;
  in_target : string;
  in_flips : int;
  in_log : string list;
  in_faults : (string * string) list;  (** disabled app, fault text *)
  in_canary_intact : bool;
  in_os_intact : bool;
  in_deterministic : bool;
      (** an identical re-run with the same seed reproduced the same
          flips, faults and memory outcome *)
}

type summary = {
  s_cells : cell list;
  s_injections : injection list;
  s_mismatches : int;
  s_oracle_failures : int;
  s_lint_failures : int;
  s_nondeterministic : int;
  s_wcet_checked : int;  (** total bound-checked dispatches *)
  s_wcet_violations : int;  (** total above-bound dispatches (0 = sound) *)
  s_dispatch : (Amulet_cc.Isolation.mode * Amulet_obs.Hist.t) list;
      (** per-mode dispatch-cycle distribution, the cells' histograms
          merged losslessly across the parallel domains — identical
          whatever [jobs] was *)
}

val run_cell :
  attack:Attacks.t -> mode:Amulet_cc.Isolation.mode -> seed:int -> cell
(** One cell on its own: the cell {!run} reports for [attack] under
    [mode]. *)

val injection_pair :
  mode:Amulet_cc.Isolation.mode -> Attacks.base -> Amulet_aft.Aft.firmware
(** The benign [victim; carrier] firmware a mode's injection rows boot,
    linked from the base's compiled apps ({!Attacks.base_apps}). *)

val run_injection :
  mode:Amulet_cc.Isolation.mode ->
  target:[ `Regs | `Fram | `Mpu ] ->
  seed:int ->
  injection
(** Build and boot the benign victim+carrier pair and run it with
    seeded bit flips aimed at the register file, the victim's FRAM data
    segment, or the MPU configuration — twice from the one boot
    ({!Amulet_os.Kernel.start}), asserting the outcome reproduces. *)

val quick_names : string list
(** The CI smoke subset: one attack per defence class. *)

val run :
  ?quick:bool ->
  ?jobs:int ->
  ?only:string list ->
  ?modes:Amulet_cc.Isolation.mode list ->
  seed:int ->
  unit ->
  summary
(** Run the (filtered) matrix mode by mode, each mode's cells and
    then its injection rows on the fleet scheduler's worker
    domains ({!Amulet_fleet_core.Sched.map} — results in item order, so
    the summary is byte-identical whatever the job count).  Cells come back
    attack by attack, each under every mode in [modes] order.
    [jobs <= 0] means {!Amulet_fleet_core.Sched.default_jobs}, the one
    jobs policy shared by every parallel driver; [only] filters attacks
    by name; [quick] restricts to {!quick_names} and skips the injection
    rows. *)

val ok : summary -> bool

val emit_jsonl : summary -> out_channel -> unit
(** One {!Amulet_obs.Obs} record per cell/injection, through a JSONL
    sink. *)

val pp_matrix : Format.formatter -> summary -> unit
(** Console expected-vs-observed matrix plus totals. *)
