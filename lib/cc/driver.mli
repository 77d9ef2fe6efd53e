(** Compiler driver: source text to assembly sections plus the
    analysis facts the AFT and profiler need. *)

type compiled = {
  prefix : string;
  mode : Isolation.mode;
  code : Amulet_link.Asm.item list;
  data : Amulet_link.Asm.item list;
  infos : Codegen.fn_info list;
  handlers : string list;  (** [handle_*] event entry points *)
  api_gates : string list;  (** distinct API gates referenced *)
  stack_bytes : int;  (** worst-case stack for any handler *)
  recursive : bool;  (** stack bound came from the recursion default *)
  loops : (string * int) list;
      (** [(header label, max body executions)] from the loop-bound
          oracle — see {!Codegen.output.loops} *)
}

val default_stack_bytes : int
(** Fallback stack reservation when recursion defeats the analysis. *)

val compile :
  prefix:string ->
  mode:Isolation.mode ->
  ?shadow:bool ->
  ?analyze:(Tast.program -> Codegen.classifier) ->
  ?loop_bounds:(Tast.program -> Srcloc.t -> int option) ->
  string ->
  compiled
(** Full pipeline: lex, parse, phase-1 feature check, type check,
    code generation with isolation checks, stack-depth analysis.
    [analyze] (typically {!Amulet_analysis.Range.analyze}) runs after
    type checking and classifies dereference sites so codegen can
    elide guards proven redundant; it may raise {!Srcloc.Error} for
    accesses proven out of bounds.  [loop_bounds] (typically
    {!Amulet_analysis.Range.loop_bounds}) supplies per-loop iteration
    bounds recorded into [compiled.loops] for the WCET certifier; it
    never changes the generated code.
    @raise Srcloc.Error on any source-level problem. *)
