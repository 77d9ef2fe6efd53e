(** Events delivered by the AmuletOS scheduler to application
    state-machine handlers.

    Each event kind maps to a conventionally-named handler function
    ([handle_init], [handle_accel], ...) that the AFT discovered at
    compile time.  The handler receives one integer argument in R12
    (timer id, button state, sensor id — kind-dependent). *)

type sensor = Accel | Ppg | Temperature | Light

val sensor_to_int : sensor -> int
val sensor_of_int : int -> sensor option
val all_sensors : sensor list

type kind =
  | Init  (** delivered once when the app starts *)
  | Timer_fired of int  (** argument: timer id *)
  | Sensor_sample of sensor
  | Button of int  (** argument: button state bitmap *)
  | Tick  (** coarse periodic system tick *)

type t = {
  at : int;  (** virtual time, in CPU cycles *)
  seq : int;  (** tie-breaker: FIFO among simultaneous events *)
  app : int;  (** destination app index *)
  kind : kind;
  arg : int;
}

val handler_name : kind -> string

val handler_index : kind -> int
(** The kind's handler as a small index:
    [handler_names.(handler_index k) = handler_name k]. *)

val handler_names : string array
(** Every handler name, by {!handler_index}. *)

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit

val cycles_per_ms : int
(** 16 MHz core: 16000 cycles per millisecond. *)

val ms_to_cycles : int -> int
val cycles_to_ms : int -> int
