(** Structured observability: spans, instants and counters with
    pluggable sinks.

    All timestamps and durations are {e simulated machine cycles}
    (integers).  The Chrome sink writes them verbatim as trace-µs —
    1 trace-µs ≡ 1 cycle — so Perfetto renders exact cycle counts and
    a JSON round-trip loses nothing.

    The whole subsystem is host-side: attaching it never charges
    simulated cycles, so cycle counts with and without tracing are
    identical (asserted by the bench suite). *)

type value = Vint of int | Vstr of string

type record =
  | Span of {
      name : string;
      cat : string;
      ts : int;
      dur : int;
      tid : int;
      args : (string * value) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : int;
      tid : int;
      args : (string * value) list;
    }
  | Counter of { name : string; ts : int; value : int }

val record_ts : record -> int
val arg : record -> string -> value option
val int_arg : record -> string -> int option
val str_arg : record -> string -> string option

val json_of_record : record -> Json.t
(** Chrome [trace_event] dict ([ph] "X"/"i"/"C"). *)

val record_of_json : Json.t -> record option
(** Inverse of {!json_of_record}; [None] on unknown [ph]. *)

(** {1 Sinks} *)

type sink = { output : record -> unit; close : unit -> unit }

val chrome_sink : out_channel -> sink
(** [{"traceEvents":[...]}] — loadable in Perfetto / chrome://tracing.
    Closing the sink closes the channel. *)

val jsonl_sink : out_channel -> sink
(** One record dict per line. *)

val chrome_buffer_sink : Buffer.t -> sink
val jsonl_buffer_sink : Buffer.t -> sink

val console_sink : Format.formatter -> sink
(** Human-readable line per record. *)

(** {1 Context} *)

type t

val create : unit -> t
(** Fresh context with no sinks and a forensics ring of the last 64
    machine trace events. *)

val add_sink : t -> sink -> unit
val enable_profile : t -> Amulet_aft.Aft.firmware -> unit
val profile : t -> Profile.t option
val ring : t -> Amulet_mcu.Trace.ring

val emit : t -> record -> unit

val span :
  t ->
  ?cat:string ->
  ?tid:int ->
  ?args:(string * value) list ->
  name:string ->
  ts:int ->
  dur:int ->
  unit ->
  unit

val instant :
  t ->
  ?cat:string ->
  ?tid:int ->
  ?args:(string * value) list ->
  name:string ->
  ts:int ->
  unit ->
  unit

val counter : t -> name:string -> ts:int -> int -> unit

val emit_profile_counters : t -> ts:int -> unit
(** Emit one counter per profiler category
    ({!Profile.counter_name}) carrying its cumulative cycle total.
    No-op when no profiler is enabled or no sink is attached. *)

val attach : t -> Amulet_mcu.Machine.t -> unit
(** Install (composing with any existing hook) a machine event hook
    that records every event into the forensics ring and feeds the
    profiler on each executed instruction.  Attach {e before} loading
    and booting so profiler totals equal [Machine.cycles] exactly. *)

val close : t -> unit
(** Close all sinks (flushes the Chrome array terminator). *)
