(** One fleet device: a kernel started from a booted firmware and
    driven for the scenario's duration with deterministic, seeded
    event traffic.

    A device run is a pure function of (firmware, scenario, base seed,
    device index) — the kernel starts from the exact booted machine
    ({!Amulet_os.Kernel.start}), and its sensor streams and traffic
    rngs are instantiated per device from {!Scenario.device_seed}; no
    module-level state is shared — so devices can execute on any
    domain in any order, and on any boot of their firmware.  No hook,
    watcher or observability context is armed, so no trace record is
    built. *)

type result = {
  r_index : int;
  r_mode : Amulet_cc.Isolation.mode;
  r_dispatches : int;  (** handler dispatches (No_handler excluded) *)
  r_no_handler : int;
  r_faults : int;  (** dispatches ending in [App_fault] *)
  r_unrecovered : int;  (** apps left disabled at the end of the run *)
  r_api_calls : int;
  r_cycles : int;  (** simulated cycles executed by the device *)
  r_dispatch : Amulet_obs.Hist.t;  (** cycles per handler dispatch *)
  r_latency : Amulet_obs.Hist.t;
      (** queue latency per dispatch: cycles the event waited past its
          scheduled delivery time *)
  r_os_intact : bool;
      (** campaign oracle: every OS code byte equals the booted image *)
  r_alive : bool;  (** campaign oracle: kernel still dispatches app 0 *)
}

val run :
  boot:Amulet_os.Kernel.boot ->
  scenario:Scenario.t ->
  seed:int ->
  index:int ->
  result
(** [boot] must be booted from the firmware built for
    {!Scenario.device_mode}[ scenario ~index].  The device starts its
    kernel from it, which ends any kernel started from it before; the
    fleet driver keeps one boot per mode on each worker domain, so
    consecutive devices reuse the machine and its predecoded blocks. *)

val violations : result -> string list
(** Isolation-oracle verdict: non-empty when the OS code changed or
    the liveness probe failed — any entry anywhere in the fleet fails
    the run. *)
