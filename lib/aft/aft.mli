(** The Amulet Firmware Toolchain: compile a set of applications with
    one isolation mode and link them with the OS support code into a
    bootable firmware image.

    The four phases of the paper map onto this pipeline as follows:
    phase 1 (feature checks, access/API enumeration, call-graph
    stack-depth analysis) and phase 2 (check insertion with
    placeholder bounds) run inside {!Amulet_cc.Driver.compile}; phase
    3 (section attributes, stack-manipulation stubs) is the section
    assignment plus {!Stubs} generation here, each section laid out
    once; phase 4 (final layout and bound patching) is
    {!Layout.compute} plus link-time resolution of the symbols the code
    refers to: the section start/end symbols of the checks' bounds and
    of the stubs' MPU borders, and each app's stack top. *)

type app_spec = { name : string; source : string }

type app_build = {
  ab_name : string;
  ab_compiled : Amulet_cc.Driver.compiled;
  ab_layout : Layout.app_layout;
  ab_handlers : (string * int) list;
      (** [handle_*] function name -> linked address *)
  ab_tramp : int;  (** trampoline address *)
}

type firmware = {
  fw_mode : Amulet_cc.Isolation.mode;
  fw_image : Amulet_link.Image.t;
  fw_layout : Layout.t;
  fw_apps : app_build list;
}

exception Build_error of string

exception Source_error of {
  app : string;
  loc : Amulet_cc.Srcloc.t;
  msg : string;
}
(** A source-level error ({!Amulet_cc.Srcloc.Error}) in the app named
    [app]. *)

val stack_margin : int
(** Extra stack bytes reserved per app on top of the compiler's
    source-level worst-case estimate (gate register saves, trampoline
    pushes). *)

val build :
  mode:Amulet_cc.Isolation.mode ->
  ?shadow:bool ->
  ?elide:bool ->
  ?certify:bool ->
  app_spec list ->
  firmware
(** [shadow] additionally arms the shadow return-address stack in
    InfoMem (the paper's future-work hardening; works with any mode).
    [elide] (default true) runs the range analysis so codegen can drop
    guards at proven-safe dereference sites; pass [false] to measure
    the unoptimized check cost.
    [certify] (default true) runs the static certifier post-link and
    stamps [cert.gates.<app>] notes into the image so the kernel can
    elide the dynamic gate-pointer validation for the certified
    services; pass [false] to measure the uncertified gate cost.
    @raise Build_error on name clashes or layout overflow;
    @raise Source_error on source-level errors. *)

val find_app : firmware -> string -> app_build
(** @raise Not_found *)

val handler_addr : app_build -> string -> int option
