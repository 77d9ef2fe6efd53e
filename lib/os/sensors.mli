(** Synthetic sensor and power models.

    The real Amulet reads an accelerometer, a PPG heart-rate sensor, a
    thermometer, a light sensor and a battery gauge.  These generators
    produce deterministic, physiologically-plausible series as pure
    functions of (seed, scenario, time) so experiment runs are exactly
    reproducible.  A [t] remembers the accelerometer magnitude and PPG
    samples it has already synthesised (a small table per series,
    direct-mapped by time and allocated on the series' first use), since a handler reading a buffer of them
    re-reads the same times; each kernel owns its [t]. *)

type scenario =
  | Resting  (** sitting still: low-amplitude accelerometer noise *)
  | Walking  (** ~2 Hz step oscillation on the vertical axis *)
  | Running  (** ~3 Hz, higher amplitude, elevated heart rate *)
  | Fall_at of int  (** resting, then a high-g spike at the given ms *)
  | Daily_mix  (** alternating segments of rest and walking *)

type t

val create : ?seed:int -> scenario -> t
val scenario : t -> scenario

val accel_sample : t -> time_ms:int -> int * int * int
(** (x, y, z) in milli-g; gravity on z. *)

val accel_magnitude : t -> time_ms:int -> int
(** |(x,y,z)| approximation in milli-g.  Memoised by time. *)

val ppg_sample : t -> time_ms:int -> int
(** Raw photoplethysmogram sample (arbitrary units around 2048).
    Memoised by time. *)

val heart_rate : t -> time_ms:int -> int
(** Beats per minute implied by the scenario. *)

val temperature : t -> time_ms:int -> int
(** Tenths of a degree Celsius (skin temperature). *)

val light : t -> time_ms:int -> int
(** Ambient light in lux-ish units with a day/night cycle. *)

val battery_percent : t -> time_ms:int -> int
(** Linear discharge from 100, scaled for a two-week lifetime. *)

val button_state : t -> time_ms:int -> int
