(** The AmuletOS kernel model: event-driven scheduler driving app
    state machines on the simulated MCU.

    The kernel is the host side of the hybrid OS design (DESIGN.md):
    dispatching an event means loading the handler address into R15,
    the argument into R12, and starting the machine at the app's
    AFT-generated trampoline; everything from there to the halt in
    [__osreturn] — MPU reconfiguration, stack switch, the handler, API
    gates — is simulated machine code whose cycles are measured.

    Virtual time is counted in CPU cycles (16 MHz); events carry cycle
    timestamps and the clock advances to [max now event.at] before a
    dispatch, then by however long the handler ran. *)

type fault_policy =
  | Disable  (** a faulting app is switched off (default) *)
  | Restart of int  (** re-deliver [handle_init] up to N times *)

type outcome =
  | Ok
  | No_handler
  | App_fault of string  (** MPU violation / check fault / runaway *)

(** Measured cost of one handler dispatch. *)
type dispatch_record = {
  dr_app : int;
  dr_kind : Event.kind;
  dr_cycles : int;  (** trampoline + handler + gates + services *)
  dr_latency : int;
      (** queue latency: virtual cycles the event waited past its
          scheduled delivery time before this dispatch started (the
          same value the [dispatch_latency_cycles] Obs counter
          records, but available hooks-off — the fleet service's
          per-mode latency histograms are built from it) *)
  dr_reads : int;
  dr_writes : int;
  dr_api_calls : int;
  dr_outcome : outcome;
}

(** One app's dispatches of one handler, summed ({!handler_stats}) —
    the input ARP needs. *)
type handler_stats = {
  hs_count : int;
  hs_cycles : int;
  hs_reads : int;
  hs_writes : int;
  hs_api_calls : int;
}

type app_state = {
  build : Amulet_aft.Aft.app_build;
  mutable enabled : bool;
  mutable fault_count : int;
  mutable restarts : int;
  mutable last_fault : string option;
  mutable last_forensics : string option;
      (** full {!Amulet_obs.Forensics} dump of the app's most recent
          fault (only when an observability context is attached) *)
  mutable subscriptions : (Event.sensor * int) list;  (** sensor, rate Hz *)
  mutable timers : (int * int) list;  (** id, period ms *)
  certified : bool array;
      (** by service number: the services whose gate-pointer validation
          the static certifier proved redundant for this app (the
          image's [cert.gates.<app>] note); {!Api.dispatch} skips the
          dynamic range walk for them *)
  valid : (int * int) list;
      (** the address ranges this app may hand to the OS *)
  state_addr : int option;
      (** address of the app's [state] global, when it declares one;
          dispatch spans carry its value for the ARP view
          ({!Amulet_obs.Summary.per_state_accounting}) *)
  handlers : int array;
      (** by {!Event.handler_index}: the address of the app's handler
          for that kind of event, or [-1] when it has none.  Resolved
          once at {!boot}, so a dispatch looks its handler up without
          a string. *)
}

type t = {
  fw : Amulet_aft.Aft.firmware;
  machine : Amulet_mcu.Machine.t;
  api : Api.t;
  queue : Event_queue.t;
  apps : app_state array;
  policy : fault_policy;
  obs : Amulet_obs.Obs.t option;
  mutable now : int;  (** virtual time, cycles *)
  mutable vbase : int;
      (** virtual-time offset of the machine cycle counter, so trace
          records emitted mid-dispatch land on the virtual timeline *)
  mutable current_app : int;
}

type boot
(** A firmware booted once: the machine as the boot stub left it,
    plus the per-app facts derived from the image (certified services,
    valid pointer ranges, the [state] global's address).  Every kernel
    {!start}ed from it runs on its one machine. *)

val boot : ?obs:Amulet_obs.Obs.t -> Amulet_aft.Aft.firmware -> boot
(** Creates a machine, loads the image, resets the machine, runs the
    boot stub to its halt and snapshots the result
    ({!Amulet_mcu.Machine.snapshot}).  With [obs], the context is
    attached to the machine {e before} boot (so profiler totals equal
    [Machine.cycles] exactly), and every kernel started from the boot
    emits dispatch spans, API instants, queue-depth /
    dispatch-latency counters and fault instants into it. *)

val start :
  ?policy:fault_policy ->
  ?scenario:Sensors.scenario ->
  ?seed:int ->
  boot ->
  t
(** Restores the boot's machine to the booted state
    ({!Amulet_mcu.Machine.restore}: only the pages written since the
    last start are copied back, and the predecoded blocks are kept)
    and queues [handle_init] for every app at t=0.  (Does not
    dispatch.)  Only the mutable state is new: app records, the API
    service state, sensor streams and the event queue.  A kernel
    started this way is indistinguishable from a {!create}d one.

    Starting a boot again ends the previous kernel started from it:
    the two share the machine, so the old kernel must not be used
    afterwards. *)

val create :
  ?policy:fault_policy ->
  ?scenario:Sensors.scenario ->
  ?seed:int ->
  ?obs:Amulet_obs.Obs.t ->
  Amulet_aft.Aft.firmware ->
  t
(** [start (boot fw)]: a kernel on a machine of its own. *)

val now_ms : t -> int

val post :
  t -> delay_ms:int -> app:int -> Event.kind -> arg:int -> unit

val dispatch_next : t -> dispatch_record option
(** Pop and run the earliest event.  [None] when the queue is empty. *)

val run_for_ms : t -> int -> dispatch_record list
(** Dispatch everything scheduled in the next virtual interval
    (newly-posted periodic events included); returns the records in
    dispatch order. *)

val app_by_name : t -> string -> app_state

val handler_stats :
  app_state -> dispatch_record list -> (string * handler_stats) list
(** The app's dispatches among the records (those {!run_for_ms} or
    {!dispatch_next} returned), summed per handler and sorted by
    handler name.  [No_handler] records are skipped, so the list names
    every handler that ran, faulting runs included.  The kernel itself
    keeps no per-handler state. *)

val display_line : t -> int -> string
val log_contents : t -> string

(* Post-incident oracles used by the attack campaign (lib/sec). *)

val os_intact : t -> bool
(** Every byte of the OS code region still equals the booted image —
    [false] means some attack (or injected fault) corrupted kernel
    code.  Exact, and cheap: only the pages written since the kernel
    started are compared ({!Amulet_mcu.Memory.unchanged}). *)

val liveness_probe : t -> app:int -> bool
(** Post a [Button] event to [app] and dispatch until it is delivered
    (at most 64 dispatches).  [true] when the kernel delivered it and
    the app survived — the campaign's "kernel still live / victim
    still schedulable" check. *)

val unrecovered_faults : t -> (string * string) list
(** Apps left disabled by a fault under the [Disable] policy (or after
    exhausting [Restart]): [(app name, last fault message)].  Drives
    {b amulet sim}'s failure exit code. *)
