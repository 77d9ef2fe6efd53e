(** AFT phase 4: firmware memory layout (paper Fig. 1).

    {v
      SRAM                      OS stack (shared stack in the
                                no-isolation / feature-limited modes)
      0x4400  os_code           runtime helpers, gates, trampolines
              os_data           OS globals (1 KiB aligned: OS-mode MPU
                                boundary B1)
              app0_code         first app's code + exit stub
              app0_data         stack (grows down) below globals
                                [1 KiB aligned start and end: the
                                app-mode MPU boundaries B1/B2]
      ...     app<i>_code/data
    v}

    Each app's data segment starts and ends on a 1 KiB granule so the
    MPU boundary registers can describe it exactly; its code sits
    directly below its data, so segment 1 (execute-only) covers the
    OS, all lower apps and the running app's code, exactly as in the
    paper. *)

type app_layout = {
  index : int;
  name : string;
  code_base : int;
  code_size : int;  (** includes the injected exit stub *)
  data_base : int;  (** = MPU boundary B1 while this app runs *)
  data_limit : int;  (** = MPU boundary B2 while this app runs *)
  globals_size : int;
  stack_bytes : int;
      (** from [data_base] up to the globals; the AFT labels the top
          {!Amulet_cc.Isolation.stack_top_sym}, the app's initial SP *)
}

type t = {
  os_code_base : int;
  os_code_size : int;
  os_data_base : int;  (** 1 KiB aligned: OS-mode B1 *)
  os_data_size : int;
  apps_base : int;  (** 1 KiB aligned: OS-mode B2 *)
  apps : app_layout list;
}

exception Does_not_fit of string

val compute :
  os_code_size:int ->
  os_data_size:int ->
  apps:(string * int * int * int) list ->
  t
(** [compute ~os_code_size ~os_data_size ~apps] with
    [apps = (name, code_size, globals_size, stack_bytes) list].
    @raise Does_not_fit when the firmware exceeds FRAM. *)

val pp : Format.formatter -> t -> unit
