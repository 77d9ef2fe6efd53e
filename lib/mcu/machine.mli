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
  mutable hooked : bool;
      (** internal: the step hook of the boundary in hand has run and
          sent dispatch back to the block cache; {!run} maintains it *)
  mutable extra_cycles : int;
      (** cycles charged by host services, included in {!cycles} *)
  blocks : (int, block) Hashtbl.t;
      (** internal: predecoded basic-block cache, keyed by entry pc;
          {!run} maintains it, {!drop_blocks} empties it — do not
          touch *)
  lookup : block array;
      (** internal: a direct-mapped, tag-checked slot per entry pc in
          front of [blocks]; every block in it is in [blocks] *)
  mutable code_drained : int;
      (** internal: the {!Memory.code_gen} up to which [blocks] has
          been invalidated against code writes *)
}

and block = {
  pre : Predecode.block;  (** the decoded uops, their span and MPU key *)
  execs : (t -> unit) array;
      (** [execs.(i)] executes [pre.b_uops.(i)]: built once with the
          block, specialised on the uop's operation, width and
          addressing modes.  {!run} calls it from either of its loops;
          the lean one reads [pre.b_uops.(i).u_stores] after it to
          know whether the uop may have stopped the machine, written
          code, moved the MPU key or armed a hook. *)
  mutable bursts : (t -> bool) array;
      (** internal: the fused steps of the block's stack runs
          ({!Predecode.uop.u_run}), built by the lean runner when it
          first reaches one of them, and until then, and in a block
          without a run, one shared empty array; the careful loop never
          reads them.  Where [pre.b_uops.(i).u_run = k > 0],
          [bursts.(i)] runs uops [i .. i+k-1] as one step, and the lean
          runner calls it at uop [i].  It returns false and changes
          nothing unless every check those uops would make passes for
          the whole run: SP even, the byte range not wrapping, both end
          pages backing memory and, for pushes, written since the last
          snapshot and not watched, and the permission table granting
          the write (push) or read (pop) at both end granules.  Then it
          loads or stores straight on {!Memory.t.data}, sets SP once
          and charges the run's fetch words, cycles, retired count,
          data accesses and PC.  A push into written, unwatched memory
          and a pop cannot stop the machine, write code, change the MPU
          key or arm a hook, so no check follows it; when it declines,
          the uops run one by one. *)
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
    halt/fault state, the access statistics, host-charged cycles,
    the console buffer and the block cache ({!drop_blocks}).  Does not
    clear memory, its written-page bits or the CPU cycle counter. *)

val drop_blocks : t -> unit
(** Empty the predecoded-block cache: the table, the lookup in front
    of it and the code-write watches.  The next {!run} decodes every
    block afresh; no simulated state changes. *)

type snapshot
(** A machine state that {!restore} can return to. *)

val snapshot : t -> snapshot
(** Record memory ({!Memory.snapshot}: the pages ever written), the
    registers, the CPU cycle and instruction counters, host-charged
    cycles, the access statistics, the MPU registers, the timer, the
    console, the halt and software-fault flags, the host-call handler,
    and the watcher and step-hook chains as they stand. *)

val restore : t -> snapshot -> unit
(** Return to the state [snapshot] recorded: memory by
    {!Memory.restore} (only the pages written since), everything else
    by assignment.  A watcher or step hook installed after the
    snapshot is dropped.  The predecoded-block cache is kept: blocks
    on the pages the restore copies back are flushed before the next
    block runs, and every other block stays valid and validated.
    @raise Invalid_argument unless [snapshot] is the latest taken of
    this machine. *)

(** {2 The bus}

    Region decoding, MPU checks, MMIO dispatch, statistics and trace
    events for every access the CPU makes.  Backing memory is read and
    stored without a call into {!Memory} (see {!Memory.t});
    [test/support/ref_bus.ml] keeps the data path through
    [Memory.read]/[Memory.write] as the lockstep's reference. *)

val bus_read : t -> Word.width -> int -> int
(** A data read: MMIO space answers with its register value
    ({!peripheral_read}), unmapped space raises {!Fault}, and backing
    memory is checked for read permission, counted in
    [stats.data_reads] and reported to a watcher as a
    {!Trace.Mem_read}.  An odd word address is aligned down. *)

val bus_write : t -> Word.width -> int -> int -> unit
(** A data write: to MMIO space through {!peripheral_write}, a
    {!Fault} in unmapped space, and in backing memory a write
    permission check, the store, a count in [stats.data_writes] and a
    {!Trace.Mem_write}. *)

val fetch : t -> int -> int
(** An instruction word read through the bus at the given address:
    MMIO space answers with its register value, unmapped space raises
    {!Fault}, and backing RAM is checked for execute permission before
    the word is counted in [stats.fetch_words].  {!run} fetches this way
    where it cannot predecode. *)

val peripheral_read : t -> Word.width -> int -> int
(** A read of MMIO space: the MPU's and the timer's registers, 0
    elsewhere. *)

val peripheral_write : t -> Word.width -> int -> int -> unit
(** A write to MMIO space: the MPU's registers (a bad password raises
    {!Fault}), the timer's, and the debug ports; an {!Trace.Io_write}
    for every write that takes effect. *)

val run : ?fuel:int -> t -> stop_reason
(** Run until halt, fault, software fault, or [fuel] instructions
    (default 10 million).

    The one interpreter.  Instructions execute from a cache of
    predecoded basic blocks ({!Predecode}): decoded once, chained to
    the next control transfer, each uop run by its own executor
    ({!block}) with {!Cpu}'s semantics and order of effects, and with
    per-word MPU execute checks elided while the MPU configuration key
    the block was validated under is live.  Blocks are found through a
    tag-checked slot per entry pc before the table.  An entry pc that
    cannot be predecoded (MMIO fetch, unmapped pc, illegal word, wrap
    mid-instruction) decodes one instruction through {!fetch}, which
    raises the faults a fetch raises.

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

    Each block runs in one of two loops, picked at its entry from the
    machine's state: the lean runner when no step hook and no watcher
    is armed, the fuel left covers all the block's uops, and the block
    validates under the live MPU key; the careful loop otherwise, the
    only one that runs hooks, watchers, per-word Exec checks, empty
    blocks and the last uops of the fuel.  The lean runner has nothing
    of the contract to do but fetch-word counting, execution and
    charging, and checks for a stop, a code write, a new MPU key or a
    newly armed hook only after a uop that may store
    ({!Predecode.uop.u_stores}), the only way an instruction can cause
    one; a stop or code write ends the block, and a hook or a block
    that no longer validates sends the rest of the block to the
    careful loop.  It also runs each stack run of the block (an AFT
    gate's register saves and restores) as one fused step where every
    check of its uops passes for the whole run ({!block}), and uop by
    uop otherwise.  Both loops charge and count alike, so no result
    depends on which ran.  Neither loop nor the executors allocate
    beyond the event records a watcher receives: a run allocates
    otherwise only to build a block or to report a fault or a
    software-fault code.

    The cache is invalidated by writes into predecoded code spans
    (tracked by {!Memory.code_gen}; self-modifying code re-decodes
    before its next instruction executes) and cleared by {!reset} and
    {!drop_blocks}. *)

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
