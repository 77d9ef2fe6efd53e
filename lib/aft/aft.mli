(** The Amulet Firmware Toolchain: compile a set of applications with
    one isolation mode and link them with the OS support code into a
    bootable firmware image.

    The four phases of the paper map onto three steps, and {!build} is
    their composition:
    - {!compile} runs phase 1 (feature checks, access/API enumeration,
      call-graph stack-depth analysis) and phase 2 (check insertion
      with placeholder bounds) inside {!Amulet_cc.Driver.compile} for
      one app, then does that app's part of phase 3: its code section,
      with the exit stub {!Stubs} injects, laid out once.
    - {!os} does the OS's part of phase 3: the OS code (runtime
      helpers, startup, [__osreturn], the gates and one trampoline per
      app) and the OS data, each laid out once.
    - {!link} is phase 4: {!Layout.compute} places the sections, and
      the linker resolves the symbols the code refers to: the section
      start/end symbols of the checks' bounds and of the stubs' MPU
      borders, and each app's stack top.

    The compiled code refers to the final layout only through those
    symbols, so an app's compiled value does not depend on what it is
    linked with, and an OS value depends only on the mode, [shadow] and
    the ordered app names: one of each can be linked into many
    firmwares.  Compiled apps and OS values are never written once
    made, and {!link} only reads them (the assembler emits from a
    layout without changing it), so domains may share them. *)

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

type compiled
(** One app compiled for one mode and [shadow] setting, its code
    section laid out. *)

type os
(** The OS code and data for one mode, [shadow] setting and ordered
    list of app names, laid out. *)

val compile :
  mode:Amulet_cc.Isolation.mode ->
  ?shadow:bool ->
  ?elide:bool ->
  app_spec ->
  compiled
(** [shadow] (default false) makes the generated code push return
    addresses onto the shadow stack; [elide] as for {!build}.
    @raise Source_error on source-level errors. *)

val os : mode:Amulet_cc.Isolation.mode -> ?shadow:bool -> string list -> os
(** The OS part of a firmware whose apps are [names], in link order.
    @raise Build_error on duplicate or invalid app names. *)

val link : ?certify:bool -> os -> compiled list -> firmware
(** Lay out, link and (with [certify], default true) certify a
    firmware from parts.
    @raise Invalid_argument if the apps' names or order differ from
    the ones [os] was made for, or an app was compiled for another
    mode or [shadow] setting;
    @raise Build_error on layout overflow or a link error. *)

val build :
  mode:Amulet_cc.Isolation.mode ->
  ?shadow:bool ->
  ?elide:bool ->
  ?certify:bool ->
  app_spec list ->
  firmware
(** [link ?certify (os ~mode ?shadow names) (List.map (compile ...) specs)]:
    the names are checked before any app is compiled.
    [shadow] additionally arms the shadow return-address stack in
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
