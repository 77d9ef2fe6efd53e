(** Predecoded micro-ops and basic blocks, the unit {!Machine.run}
    executes.

    Each instruction is decoded once into a {!uop} with operand forms,
    extension-word addresses, fetch-word count and cycle cost
    precomputed; {!build} chains uops from an entry pc up to the next
    control transfer into a {!block}.

    The builder reads raw memory words only — no MPU checks, no
    statistics, no bus traffic — so building a block is free of
    observable effects.  Execute-permission validation and fetch
    accounting happen at run time in the machine, in fetch order. *)

type uop = {
  u_pc : int;  (** address of the first instruction word *)
  u_len : int;  (** encoded size in bytes (2, 4 or 6) *)
  u_words : int;  (** [u_len / 2]: the fetch words it costs *)
  u_cost : int;  (** {!Cycles.cycles}, precomputed *)
  u_instr : Opcode.t;
  u_src_ext : int;  (** address fetch used for the src extension word *)
  u_dst_ext : int;  (** likewise for the dst extension word *)
  u_target : int;  (** jump target (masked); 0 for non-jumps *)
}

type block = {
  b_uops : uop array;
      (** empty when the entry pc is not predecodable (MMIO fetch,
          unmapped pc, illegal word, wrap mid-instruction) *)
  b_lo : int;  (** entry pc (the cache key) *)
  b_hi : int;
      (** decoded byte span [\[b_lo, b_hi)]; a write overlapping it
          invalidates the block.  Empty blocks still span their first
          word so a write that makes the bytes decodable flushes them. *)
  mutable b_mpu_key : int;
      (** The MPU configuration key ({!Mpu.t.key}) under which every
          instruction word passes the Exec permission check, or [-1]
          before the first validation.  While it matches the live key
          the machine skips per-word checks and bulk-counts fetch
          words; a configuration that changes and changes back (an OS
          round trip) leaves it valid. *)
}

val max_uops : int
(** Upper bound on instructions per block. *)

val decode : fetch:(int -> int) -> pc:int -> uop
(** One instruction at [pc] as a uop, its words read through [fetch].
    Raises whatever [fetch] raises and {!Decode.Illegal}. *)

val build : read_word:(int -> int) -> pc:int -> block
(** [build ~read_word ~pc] decodes a basic block starting at [pc] from
    raw memory words.  Never raises: the block stops before undecodable
    or unfetchable bytes, possibly with zero uops. *)
