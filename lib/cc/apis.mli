(** The AmuletOS system API, as seen by application code: the one
    declaration of the app-to-OS call interface.

    Applications call these as ordinary C functions (up to three
    scalar/pointer arguments); the compiler routes each call through
    the AFT-generated context-switch gate ([gate_label name]).  The
    kernel ([Amulet_os.Api]) serves each service by number from
    {!services}, validating the one application-supplied pointer
    (R12) against the calling app's data bounds before touching memory
    — the paper's "carefully handle application-provided pointers
    passed through API calls".

    Everything that depends on a service's shape reads it from here:
    the kernel's clamp, validation and charge; the extent the
    gate-argument certifier ([Amulet_analysis.Gate_taint]) proves a
    pointer against; the static per-call charge bound
    ([Amulet_analysis.Wcet]); and the gate numbering
    ([Amulet_aft.Stubs.gates]). *)

(** The shape of a service's pointer argument (R12): how many bytes the
    kernel validates there and what it charges for the transfer. *)
type pointer =
  | No_pointer
  | Fixed of { bytes : int; cycles : int }
      (** always [bytes] validated and [cycles] charged *)
  | Counted of { lo : int; hi : int; bytes_per : int; cycles_per : int }
      (** R13, read as a signed word and clamped to [\[lo, hi\]], counts
          elements of [bytes_per] bytes, each charged [cycles_per] *)
  | C_string of { max_chars : int; cycles_per : int }
      (** one byte validated; the kernel reads up to [max_chars]
          characters (stopping at NUL and at the end of the valid
          range holding the pointer), each charged [cycles_per] *)

type service = {
  name : string;
  signature : Ctype.t;
  base_charge : int;  (** cycles charged to every dispatch *)
  pointer : pointer;
}

val services : service array
(** Every service, indexed by service number. *)

val signatures : (string * Ctype.t) list
(** [(name, function type)] in service-number order, for the type
    checker. *)

val find : string -> service option

(** {1 Charges} *)

val validate_charge : int
(** Cycles for validating one app-supplied pointer range; charged to
    every uncertified call of a pointer service, also when the
    validation fails. *)

val unknown_charge : int
(** Cycles charged for a service number outside {!services}. *)

val count : pointer -> int -> int
(** [count p word] is the element count the kernel serves for the
    count word [word] (R13): the clamp for [Counted], 1 for [Fixed],
    [max_chars] (an upper bound) for [C_string]. *)

val validated_bytes : pointer -> int -> int
(** Bytes at R12 the kernel validates for [n] elements. *)

val variable_charge : pointer -> int -> int
(** Cycles the kernel charges for transferring [n] elements. *)

val extent : pointer -> int option -> int
(** [extent p bound] is the largest byte extent the kernel can validate
    at R12 when the count word R13 is at most [bound], a value known to
    be non-negative as a signed word; [None] when R13 is unknown. *)

val worst_case_charge : certified:bool -> string -> int
(** Base charge, plus {!validate_charge} for an uncertified pointer
    service, plus the variable charge at the largest count: an upper
    bound on what any single dispatch of the named service charges.
    {!unknown_charge} for a name not in {!services}. *)

(** {1 Callable externals}

    The code outside an app that the app may call or branch to: the
    gates, the runtime helpers ({!Runtime.helpers}) and the OS return
    path. *)

val gate_label : string -> string
(** Linker symbol of the gate stub for a service name. *)

val service_of_gate_label : string -> string option
(** Inverse of {!gate_label}; [None] for any other symbol. *)

val osreturn_label : string
(** The OS return path every exit stub branches to. *)

val footprint : string -> int option
(** Stack bytes a call to a gate or runtime helper occupies below the
    caller's SP, including its return address; [None] for any other
    name (the OS return path included). *)

val externals : (string * int) list -> (int, string) Hashtbl.t
(** [externals symbols] maps the address of every gate, runtime helper
    and OS return path among [symbols] to its name; a later symbol at
    an address replaces an earlier one.  One pass over [symbols], with a
    constant-time test per name: the {!gate_label} prefix, a table of
    the {!Runtime.helpers} names built once, or {!osreturn_label}.
    [test_link] checks that this gives the same table, last-wins
    choices included, as comparing every symbol with each helper
    name. *)

(** {1 Certification note}

    [Amulet_aft.Aft.build] records, per app, the services whose gate
    pointer validation the static certifier proved redundant. *)

val certified_note_key : string -> string
(** [cert.gates.<app>] *)

val certified_note : app:string -> string list -> string * string
(** The note recording [names] as certified for [app]. *)

val certified_services : Amulet_link.Image.t -> app:string -> string list
(** The service names the image's note certifies for [app]; [[]]
    without a note. *)
