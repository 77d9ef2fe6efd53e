(** Predecoded micro-ops and basic blocks for the fast interpreter.

    Tier 1 of the two-tier engine (see {!Machine.run}): each
    instruction is decoded once into a {!uop} with operand forms,
    extension-word addresses, fetch-word count and cycle cost
    precomputed; {!build} chains uops from an entry pc up to the next
    control transfer into a {!block}.

    The builder reads raw memory words only — no MPU checks, no
    statistics, no bus traffic — so building a block is free of
    observable effects.  Execute-permission validation and fetch
    accounting are replayed at run time by the machine, preserving the
    per-instruction path's fault ordering exactly. *)

type uop = {
  u_pc : int;  (** address of the first instruction word *)
  u_len : int;  (** encoded size in bytes (2, 4 or 6) *)
  u_words : int;  (** [u_len / 2]: fetch words the slow path counts *)
  u_cost : int;  (** {!Cycles.cycles}, precomputed *)
  u_instr : Opcode.t;
  u_src_ext : int;  (** address fetch used for the src extension word *)
  u_dst_ext : int;  (** likewise for the dst extension word *)
  u_target : int;  (** jump target (masked); 0 for non-jumps *)
}

type tail =
  | T_fallthrough of int
      (** [max_uops] stopped the block; execution continues at this pc *)
  | T_control  (** ended on an instruction that may rewrite PC *)
  | T_unhandled of int
      (** the next pc is not predecodable (MMIO fetch, illegal word,
          wrap mid-instruction); the machine single-steps it *)

type block = {
  b_pc : int;  (** entry pc (the cache key) *)
  b_uops : uop array;
  b_lo : int;
  b_hi : int;
      (** decoded byte span [\[b_lo, b_hi)]; a write overlapping it
          invalidates the block.  Empty blocks still span their first
          word so a write can flush a cached "unhandled" verdict. *)
  b_tail : tail;
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

val build : read_word:(int -> int) -> pc:int -> block
(** [build ~read_word ~pc] decodes a basic block starting at [pc] from
    raw memory words.  Never raises: undecodable or unfetchable bytes
    end the block with {!T_unhandled} (possibly with zero uops). *)
