(** TA0-like hardware timer used by the benchmarks.

    The timer counts machine cycles divided by a configurable divider.
    The paper measures with "a precision of 16 cycles": benchmark code
    configures ID = /8 and IDEX = /2 for a /16 divider, then reads
    TA0R around the measured section.

    MMIO registers: TA0CTL 0x0340 (bit2 = TACLR, bits 4-5 = MC where
    nonzero means running, bits 6-7 = ID divider 1/2/4/8), TA0R 0x0350
    (current count, read-only), TA0EX0 0x0360 (extra divider 1..8). *)

type t

val ctl_addr : int
val counter_addr : int
val ex0_addr : int

val create : unit -> t
val assign : t -> from:t -> unit
(** Give [t] the registers of [from] (a machine snapshot or restore). *)

val handles : int -> bool

val mmio_write : t -> now:int -> int -> int -> unit
(** [mmio_write t ~now addr v]: [now] is the machine cycle count. *)

val mmio_read : t -> now:int -> int -> int

val divider : t -> int
(** Effective divider (ID * IDEX). *)

val running : t -> bool
