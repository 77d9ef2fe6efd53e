(** Model of the MSP430 FRAM memory protection unit (MPU).

    Faithful to the FR5969's unit and to the shortcomings the paper
    leans on:

    - only main FRAM ([0x4400, 0xFF80)) and InfoMem are covered; SRAM,
      peripherals, the bootstrap ROM and the interrupt vectors are
      {e never} protected;
    - three main segments with just two adjustable boundaries
      ([MPUSEGB1] between segments 1 and 2, [MPUSEGB2] between 2 and 3);
    - boundaries snap down to a 1 KiB granule (the "arcane protection
      boundary rules");
    - segment 0 is pinned to InfoMem;
    - configuration registers are password-protected ([0xA5] in the
      high byte of any register write) and can be locked until reset.

    Register addresses match the real part: MPUCTL0 0x05A0, MPUCTL1
    0x05A2, MPUSEGB2 0x05A4, MPUSEGB1 0x05A6, MPUSAM 0x05A8. *)

type t = private {
  mutable ctl0 : int;  (** MPUENA / MPULOCK / MPUSEGIE bits *)
  mutable ctl1 : int;  (** violation interrupt flags *)
  mutable segb1 : int;  (** boundary register: address / 16 *)
  mutable segb2 : int;
  mutable sam : int;  (** one RE/WE/XE/VS nibble per segment *)
  mutable gen : int;  (** see {!gen} *)
  mutable key : int;
      (** The configuration every {!check} verdict is a function of,
          packed as [ena|segb1|segb2|sam]; [0] while the MPU is
          disabled.  Never negative. *)
  mutable perm : string;
      (** The permission table derived from [key]: entry
          [addr lsr granule_shift] holds the access bits the granule
          allows — [0x1] read, [0x2] write, [0x4] execute (MPUSAM's
          RE/WE/XE positions) — and its segment in bits 4-5.  Re-derived
          on every configuration change and memoised by [key]; an
          uncovered or disabled granule allows everything. *)
  mutable memo : (int * string) list;
      (** Tables already derived for this unit, by key, newest first:
          a cache of at most 8. *)
}
(** Fields are read-only outside this module: the machine reads [perm]
    and [key] on its hot paths without a call. *)

type access = Exec | Dread | Dwrite

type segment = Seg_info | Seg1 | Seg2 | Seg3

type check_result =
  | Allowed
  | Violation of segment
      (** Access denied; the segment's interrupt flag has been set. *)

val create : unit -> t

val reset : t -> unit
(** Power-up-clear: MPU disabled, unlocked, boundaries and SAM reset. *)

(* Register-level interface (used by the machine's MMIO dispatch). *)

val ctl0_addr : int
val ctl1_addr : int
val segb2_addr : int
val segb1_addr : int
val sam_addr : int

val handles : int -> bool
(** [handles addr] is true when [addr] is an MPU register. *)

type write_result = Write_ok | Bad_password | Locked_ignored

val mmio_write : t -> int -> int -> write_result
(** Word write to an MPU register.  Writes to MPUCTL0/MPUCTL1 must
    carry [0xA5] in the high byte; [Bad_password] otherwise, which on
    real silicon triggers a PUC reset (the machine's responsibility).
    Boundary and SAM registers take plain 16-bit values but are
    ignored while the configuration is locked. *)

val mmio_read : t -> int -> int

(* Semantic interface. *)

val enabled : t -> bool
val locked : t -> bool

val segment_of_addr : t -> int -> segment option
(** Which segment covers an address, or [None] when the address is
    outside MPU-protected memory. *)

val boundary1 : t -> int
val boundary2 : t -> int
(** Effective (1 KiB-aligned) segment boundaries. *)

val granule : int
(** [0x400]: segment boundaries snap down to a multiple of this. *)

val border : int -> int
(** [border addr] is the boundary-register value (address / 16) of the
    first {!granule} edge at or above [addr].  It rounds up, so a
    region that ends inside a granule keeps that whole granule: an app
    data section with odd-sized globals ends one byte below the edge
    its layout reserved. *)

val access_bit : access -> int
(** The permission-table bit that grants an access. *)

val granule_shift : int
(** [7]: the permission table has one entry per 128 B granule.  Every
    edge of the segment map — InfoMem's half-KiB, the 1 KiB-snapped
    boundaries, FRAM's end at the vector page 0xFF80 — falls on a
    granule edge, so the table is exact for all 65 536 addresses. *)

val check : t -> access -> int -> check_result
(** Permission check for one access to a 16-bit address: one table
    load and a bit test.  Always [Allowed] when the MPU is disabled or
    the address is not covered; a violation sets the segment's MPUCTL1
    flag.  Agrees with {!segment_of_addr} and the MPUSAM nibbles, which
    remain the specification the table is built from. *)

val violation_flags : t -> int
(** Current MPUCTL1 interrupt-flag bits. *)

val gen : t -> int
(** Configuration write counter: bumped by every accepted register
    write, {!configure}, {!raw_set} and {!reset}, whether or not the
    value changed.  Validity of cached verdicts is keyed by [key], not
    by this counter. *)

val assign : t -> from:t -> unit
(** Give [t] every register of [from], its {!gen}, and the [key] and
    [perm] derived from them: a machine snapshot or restore.  Builds
    no table. *)

(** Raw register cells, for the fault injector: a bit flip in the
    MPU's own configuration state models the paper's concern that a
    primitive MPU offers no protection for its own state.  [raw_set]
    deliberately bypasses the password and the lock — it is a physical
    upset, not a bus write. *)

type raw_reg = Raw_ctl0 | Raw_ctl1 | Raw_segb1 | Raw_segb2 | Raw_sam

val raw_reg_name : raw_reg -> string
val raw_get : t -> raw_reg -> int
val raw_set : t -> raw_reg -> int -> unit

(* Direct configuration helper used by host-side tests and the kernel
   model; performs the same password-checked writes as MMIO. *)

val configure :
  t -> b1:int -> b2:int -> sam:int -> enable:bool -> unit
(** Set boundaries (byte addresses), the segment access mask and the
    enable bit, as if written with the correct password. *)

val sam_bits : seg1:string -> seg2:string -> seg3:string -> ?info:string -> unit -> int
(** Build an MPUSAM value from permission strings over ['r' 'w' 'x'],
    e.g. [sam_bits ~seg1:"x" ~seg2:"rw" ~seg3:"" ()].  [info] defaults
    to no access. *)

val pp : Format.formatter -> t -> unit
