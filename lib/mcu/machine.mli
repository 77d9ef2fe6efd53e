(** The whole simulated MCU: CPU + memory + MPU + timer + debug ports.

    The machine implements the CPU bus: it dispatches MMIO in the
    peripheral region, performs MPU permission checks on FRAM/InfoMem
    accesses, raises {!Fault} on violations, and maintains access
    statistics.  {!run} is the simulator's only instruction executor.

    Debug "peripherals" (simulator devices, not real MSP430 hardware;
    they stand in for the JTAG/console facilities of the real bench):

    - [host_call_port] (0x01F0): writing a service number invokes the
      registered host-service callback — the OS model's system-call
      gate rear end;
    - [console_port] (0x01F4): writing a byte appends to the console;
    - [halt_port] (0x01F6): writing stops the machine;
    - [sw_fault_port] (0x01F8): compiler-inserted bounds checks write a
      fault code here (the paper's FAULT function). *)

type fault =
  | Mpu_violation of {
      access : Mpu.access;
      addr : int;
      pc : int;
      segment : Mpu.segment;
    }
  | Mpu_bad_password of { addr : int; pc : int }
  | Unmapped of { addr : int; pc : int; write : bool }
  | Illegal_instruction of { pc : int; word : int }

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit

type stop_reason =
  | Halted  (** the program wrote to the halt port *)
  | Faulted of fault
  | Sw_fault of int  (** a compiler-inserted check fired *)
  | Out_of_fuel

val pp_stop_reason : Format.formatter -> stop_reason -> unit

type t = {
  mem : Memory.t;
  mpu : Mpu.t;
  timer : Timer.t;
  cpu : Cpu.t;
  stats : Trace.stats;
  console : Buffer.t;
  mutable halted : bool;
  mutable sw_fault : int option;
  mutable host_call : t -> int -> unit;
  mutable on_event : (Trace.event -> unit) option;
  mutable on_step : (t -> unit) option;
      (** called before each instruction executes — the fault
          injector's hook.  Host-side only: charges no simulated
          cycles whether installed or not.  Prefer {!add_step_hook}
          over assigning this field directly. *)
  mutable emit_hook : (Trace.event -> unit) option;
      (** internal: the watcher chain snapshotted at the instruction
          boundary; {!run} maintains it — do not assign *)
  mutable in_step : bool;  (** internal: an instruction is in flight *)
  mutable extra_cycles : int;
      (** cycles charged by host services, included in {!cycles} *)
  blocks : (int, Predecode.block) Hashtbl.t;
      (** internal: predecoded basic-block cache, keyed by entry pc;
          {!run} maintains it — do not touch *)
  mutable code_drained : int;
      (** internal: the {!Memory.code_gen} up to which [blocks] has
          been invalidated against code writes *)
}

val host_call_port : int
val console_port : int
val halt_port : int
val sw_fault_port : int

val create : unit -> t

val cycles : t -> int
(** CPU cycles plus host-charged cycles. *)

val add_cycles : t -> int -> unit
(** Charge extra cycles (host services model their cost this way). *)

val regs : t -> Registers.t

val load_words : t -> addr:int -> int list -> unit
val load_bytes : t -> addr:int -> bytes -> unit

val set_reset_vector : t -> int -> unit
val reset : t -> unit
(** Load PC from the reset vector, SP from the top of SRAM, clear
    halt/fault state, the access statistics, host-charged cycles and
    the console buffer.  Does not clear memory or the CPU cycle
    counter. *)

val fetch : t -> int -> int
(** An instruction word read through the bus at the given address:
    MMIO space answers with its register value, unmapped space raises
    {!Fault}, and backing RAM is checked for execute permission before
    the word is counted in [stats.fetch_words].  {!run} fetches this way
    where it cannot predecode; tests use it as the reference fetch. *)

val run : ?fuel:int -> t -> stop_reason
(** Run until halt, fault, software fault, or [fuel] instructions
    (default 10 million).

    The one interpreter.  Instructions execute from a cache of
    predecoded basic blocks ({!Predecode}): decoded once, chained to
    the next control transfer, with per-word MPU execute checks elided
    while the MPU configuration key the block was validated under is
    live.  An entry pc that cannot be predecoded (MMIO fetch, unmapped
    pc, illegal word, wrap mid-instruction) decodes one instruction
    through {!fetch}, which raises the faults a fetch raises.

    Every instruction boundary follows one contract, observed or not:
    the step hook ({!add_step_hook}) runs first, with no instruction in
    flight; then the watcher chain is snapshotted ({!add_watch}); then
    the instruction fetches, executes and is charged
    {!Cycles.cycles}, and a watcher in the snapshot receives its
    events, a {!Trace.Exec} after it retires or a
    {!Trace.Fault_event} if it faults.  A hook that moves PC or writes
    into predecoded code sends dispatch back to the block cache
    without running again for that boundary.  [run ~fuel:1] executes
    exactly one instruction.

    The cache is invalidated by writes into predecoded code spans
    (tracked by {!Memory.code_gen}; self-modifying code re-decodes
    before its next instruction executes) and cleared by {!reset}. *)

val add_watch : t -> (Trace.event -> unit) -> unit
(** Install an event watcher, composing with (running after) any hook
    already present — the isolation oracle's watchpoint mechanism.
    Watchers are host-side observers: they charge no cycles and cannot
    alter the access they observe.

    Ordering contract: {!run} snapshots the watcher chain once per
    instruction, after the pre-instruction hook ({!add_step_hook})
    has run.  A watcher armed from a step hook therefore observes the
    imminent instruction from its very first event (pre-instruction
    state included); a watcher armed mid-instruction — from another
    watcher's callback — observes nothing until the next instruction
    boundary.  Either way a watcher sees whole instructions only,
    never a suffix of the one that installed it, so observation is
    deterministic regardless of where inside an instruction the arming
    happened. *)

val add_step_hook : t -> (t -> unit) -> unit
(** Install a pre-instruction hook, composing with (running after) any
    hook already present — the fault injector's entry point.  Runs
    before the instruction executes and before the watcher chain is
    snapshotted, so watchpoints it arms observe that instruction
    deterministically (see {!add_watch}). *)

val mem_checked_read : t -> Word.width -> int -> int
(** Read memory the way the CPU would (without MPU checks) — for host
    services and tests. *)

val mem_checked_write : t -> Word.width -> int -> int -> unit

val console_contents : t -> string
