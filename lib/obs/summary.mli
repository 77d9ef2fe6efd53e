(** Trace-file reader and aggregator for [amulet prof].

    Accepts both trace formats the sinks write: Chrome
    [{"traceEvents":[...]}] (or a bare JSON array) and JSONL (one
    record per line).  Aggregation is built on {!Agg}/{!Hist}: span
    statistics carry p50/p99 latency percentiles and memory stays
    O(distinct keys × buckets) however long the trace is — no code
    path retains per-sample state. *)

val of_string : string -> Obs.record list
(** Parse a trace; unknown records are skipped.
    @raise Json.Parse_error on malformed JSON input. *)

val aggregate : Obs.record list -> Agg.t
(** Fold a parsed trace into a streaming aggregate. *)

val agg_of_channel : in_channel -> Agg.t
(** Stream a trace from a channel directly into an aggregate.  JSONL
    input is folded line by line — a week-long trace is aggregated in
    constant memory, never materialising the record list — while
    Chrome-format documents fall back to a whole-document parse.
    @raise Json.Parse_error on malformed JSON input. *)

val pp_agg : Format.formatter -> Agg.t -> unit
(** Span statistics (count/total/avg/p50/p99/max per name), counter
    maxima and finals, instant counts, and every retained fault
    instant with its message. *)

val pp_report : Format.formatter -> Obs.record list -> unit
(** [aggregate] then [pp_agg]. *)

val per_state_accounting :
  Obs.record list -> ((int * string) * (int * int * int)) list
(** The ARP view ("memory accesses and context switches per state and
    transition"): dispatch spans with a [state] argument, the app's
    [state] global when the event arrived, as sorted ((state, handler),
    (count, cycles, data accesses)). *)
