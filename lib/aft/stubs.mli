(** AFT phases 2-3: generated context-switch machinery.

    All stubs are real assembly executed by the simulator, so every
    cycle of context-switch cost is measured rather than assumed:

    - {b API gates} ([__gate_api_*], shared by all apps): save the
      callee-saved registers on the app's stack, switch to the OS
      stack (separate-stack modes), flip the MPU to the OS
      configuration (MPU mode), invoke the host service through the
      host-call port, then undo everything in the safe order (the
      app's MPU configuration is restored {e after} the last OS-data
      access, from the [__cur_mpu_*] slots the trampoline filled in).
    - {b trampolines} ([__tramp_<app>], one per app): reset the OS
      stack, record the app's MPU configuration, point SP at the app's
      own stack, push the app's exit stub as return address, and
      branch to the handler (address in R15, argument in R12).
    - {b exit stubs} ([__exit_<app>], injected {e inside} the app's
      code section so the return-address bounds check accepts them):
      branch to [__osreturn].
    - [__osreturn]: restore the OS MPU configuration and stack, then
      halt the machine to yield back to the host kernel. *)

module A := Amulet_link.Asm

(** MPU register values for one configuration.  The boundary
    registers are link-time values: {!Amulet_link.Asm.Border}s of a
    data section's start and end symbols. *)
type mpu_cfg = { b1 : A.expr; b2 : A.expr; sam : int }

val os_mpu_cfg : shadow:bool -> mpu_cfg
(** OS-running configuration: seg1 = OS code (x), seg2 = OS data (rw),
    seg3 = apps (rw); the borders are those of [os_data__start/__end].
    With [shadow], InfoMem read-write. *)

val app_mpu_cfg : shadow:bool -> string -> mpu_cfg
(** App-running configuration for the named app: seg1 = below app data
    (x-only), seg2 = app data/stack (rw), seg3 = above (no access); the
    borders are those of [<app>_data__start/__end].  With [shadow],
    InfoMem (seg0) becomes read-write so the generated shadow-stack
    pushes can land there. *)

val os_globals : A.item list
(** OS data slots: [__os_sp_save], [__cur_app_sp], [__cur_mpu_b1/b2/sam]. *)

val startup : A.item list
(** [__os_start]: halts immediately; the host kernel drives dispatch. *)

val osreturn : mode:Amulet_cc.Isolation.mode -> os_cfg:mpu_cfg -> A.item list

val gates : mode:Amulet_cc.Isolation.mode -> os_cfg:mpu_cfg -> A.item list
(** One gate per OS API entry point (service number = position in
    {!Amulet_cc.Apis.services}). *)

val trampoline :
  mode:Amulet_cc.Isolation.mode -> shadow:bool -> name:string -> A.item list
(** [__tramp_<name>]: writes {!app_mpu_cfg} (MPU mode) and loads SP
    from the app's {!Amulet_cc.Isolation.stack_top_sym} (separate-stack
    modes). *)

val exit_stub : name:string -> A.item list
(** Appended to the app's own code section. *)

val tramp_label : string -> string
val exit_label : string -> string

val mpu_marker : string -> string -> string
(** [mpu_marker tag part] is the zero-size symbol
    [__mpu$<tag>$<part>] ([part] is ["b"] or ["e"]) bracketing each
    MPU-reconfiguration sequence for cycle attribution. *)
