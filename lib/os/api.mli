(** Host-side implementations of the OS API services.

    The simulated gate writes a service number to the host-call port;
    the machine invokes {!dispatch}, which reads arguments from
    R12-R14, validates any application-supplied pointer against the
    calling app's writable range, performs the service against the
    synthetic sensor models, writes the result to R12, and charges the
    service's modeled cycle cost (declared per service in
    {!Amulet_cc.Apis.services}; gate/context-switch cycles are
    {e executed}, not charged).

    A side effect that concerns the scheduler (a timer, a subscription)
    or a rejected pointer is an {!effect}, applied in place through the
    function the kernel passes to {!dispatch}.  Arguments and the
    result go straight through the register file, and [api_log_append]
    and [api_send_ble] append the app's bytes straight from memory.
    Apart from that effect, [api_display_write]'s line, the log and
    radio buffers' growth and the sensor models' own samples, a call
    allocates nothing. *)

type effect =
  | Set_timer of { id : int; period_ms : int }
  | Cancel_timer of int
  | Subscribe of { sensor : Event.sensor; rate_hz : int }
  | Unsubscribe of Event.sensor
  | Pointer_fault of { service : string; addr : int; len : int }
      (** an app handed the OS a pointer outside its own region *)

type t = {
  sensors : Sensors.t;
  display : string array;  (** 4-line display model *)
  log : Buffer.t;  (** flash log model *)
  ble : Buffer.t;  (** radio transmit model *)
  mutable rand_state : int;
  mutable next_timer : int;
  mutable calls : int;
}

val create : Sensors.t -> t

val dispatch :
  t ->
  Amulet_mcu.Machine.t ->
  certified:bool array ->
  valid:(int * int) list ->
  now_ms:int ->
  svc:int ->
  apply:(effect -> unit) ->
  unit
(** Serve service number [svc] ({!Amulet_cc.Apis.services}).  Every
    call counts once and pays the service's base charge; a number
    outside the table pays {!Amulet_cc.Apis.unknown_charge} and gets
    0xFFFF.  A pointer service then clamps its count, validates the
    bytes at R12 against [valid] — the half-open address ranges the
    calling app may legitimately hand to the OS (its data segment,
    plus the shared SRAM stack in the shared-stack modes) — and
    charges the transfer.  [certified], indexed by service number,
    marks the services the static certifier proved safe to serve
    without that validation and its charge
    ({!Amulet_analysis.Gate_taint} via the image's [cert.gates.*]
    notes).  A rejected range charges no transfer, sets R12 to 0xFFFF
    and applies {!Pointer_fault}; the service does not run.  A service
    applies the one effect it raises through [apply] before it
    returns. *)
