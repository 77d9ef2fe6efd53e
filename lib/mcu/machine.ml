type fault =
  | Mpu_violation of {
      access : Mpu.access;
      addr : int;
      pc : int;
      segment : Mpu.segment;
    }
  | Mpu_bad_password of { addr : int; pc : int }
  | Unmapped of { addr : int; pc : int; write : bool }
  | Illegal_instruction of { pc : int; word : int }

exception Fault of fault

let access_name = function
  | Mpu.Exec -> "execute"
  | Mpu.Dread -> "read"
  | Mpu.Dwrite -> "write"

let segment_name = function
  | Mpu.Seg_info -> "info"
  | Mpu.Seg1 -> "seg1"
  | Mpu.Seg2 -> "seg2"
  | Mpu.Seg3 -> "seg3"

let pp_fault ppf = function
  | Mpu_violation { access; addr; pc; segment } ->
    Format.fprintf ppf "MPU violation: %s of %04X (%s) at pc=%04X"
      (access_name access) addr (segment_name segment) pc
  | Mpu_bad_password { addr; pc } ->
    Format.fprintf ppf "MPU password violation on %04X at pc=%04X" addr pc
  | Unmapped { addr; pc; write } ->
    Format.fprintf ppf "unmapped %s of %04X at pc=%04X"
      (if write then "write" else "read")
      addr pc
  | Illegal_instruction { pc; word } ->
    Format.fprintf ppf "illegal instruction %04X at pc=%04X" word pc

type stop_reason =
  | Halted
  | Faulted of fault
  | Sw_fault of int
  | Out_of_fuel

let pp_stop_reason ppf = function
  | Halted -> Format.fprintf ppf "halted"
  | Faulted f -> Format.fprintf ppf "fault (%a)" pp_fault f
  | Sw_fault c -> Format.fprintf ppf "software fault %d" c
  | Out_of_fuel -> Format.fprintf ppf "out of fuel"

type t = {
  mem : Memory.t;
  mpu : Mpu.t;
  timer : Timer.t;
  cpu : Cpu.t;
  stats : Trace.stats;
  console : Buffer.t;
  mutable halted : bool;
  mutable sw_fault : int option;
  mutable host_call : t -> int -> unit;
  mutable on_event : (Trace.event -> unit) option;
  mutable on_step : (t -> unit) option;
  mutable emit_hook : (Trace.event -> unit) option;
  mutable in_step : bool;
  mutable hooked : bool;
  mutable extra_cycles : int;
  blocks : (int, block) Hashtbl.t;
  lookup : block array;
  mutable code_drained : int;
}

and block = {
  pre : Predecode.block;
  execs : (t -> unit) array;
  mutable bursts : (t -> bool) array;
}

let host_call_port = 0x01F0
let console_port = 0x01F4
let halt_port = 0x01F6
let sw_fault_port = 0x01F8

let cycles t = t.cpu.Cpu.cycles + t.extra_cycles
let add_cycles t n = t.extra_cycles <- t.extra_cycles + n
let regs t = t.cpu.Cpu.regs

(* During an instruction, events go to the watcher chain snapshotted
   at its boundary: a watcher armed mid-instruction (from an event
   callback) must observe whole instructions starting at the next
   boundary, never a suffix of the one in flight.  Hot paths match on
   it and build their event record only when someone is watching. *)
let watcher t = if t.in_step then t.emit_hook else t.on_event

let emit t e = match watcher t with None -> () | Some f -> f e

let add_watch t f =
  match t.on_event with
  | None -> t.on_event <- Some f
  | Some g ->
    t.on_event <-
      Some
        (fun e ->
          g e;
          f e)

let add_step_hook t f =
  match t.on_step with
  | None -> t.on_step <- Some f
  | Some g ->
    t.on_step <-
      Some
        (fun m ->
          g m;
          f m)

let pc_of t = t.cpu.Cpu.regs.(Registers.pc)

let[@inline] norm width v =
  match width with Word.W8 -> v land 0xFF | Word.W16 -> v land 0xFFFF

let peripheral_read t width addr =
  let v =
    if Mpu.handles addr then Mpu.mmio_read t.mpu addr
    else if Timer.handles addr then
      Timer.mmio_read t.timer ~now:(cycles t) addr
    else 0
  in
  norm width v

let emit_io t addr value =
  match watcher t with
  | None -> ()
  | Some f -> f (Trace.Io_write { addr; value })

(* The MPU's register block, decoded here rather than by [Mpu.handles]:
   every gate crossing writes it. *)
let mpu_first = Mpu.ctl0_addr
let mpu_last = Mpu.sam_addr

let peripheral_write t width addr v =
  let v = norm width v in
  if addr >= mpu_first && addr <= mpu_last && addr land 1 = 0 then begin
    (* The MPU's password check comes first: a rejected or ignored
       write must not appear in traces as if it happened. *)
    match Mpu.mmio_write t.mpu addr v with
    | Mpu.Write_ok -> emit_io t addr v
    | Mpu.Locked_ignored -> ()
    | Mpu.Bad_password ->
      raise (Fault (Mpu_bad_password { addr; pc = pc_of t }))
  end
  else begin
    emit_io t addr v;
    if addr = host_call_port then t.host_call t v
    else if addr = console_port then
      Buffer.add_char t.console (Char.chr (v land 0xFF))
    else if addr = halt_port then t.halted <- true
    else if addr = sw_fault_port then t.sw_fault <- Some v
    else if Timer.handles addr then
      Timer.mmio_write t.timer ~now:(cycles t) addr v
  end

(* Permission-table bits for each access (see [Mpu.t.perm]). *)
let exec_bit = Mpu.access_bit Mpu.Exec
let read_bit = Mpu.access_bit Mpu.Dread
let write_bit = Mpu.access_bit Mpu.Dwrite

let permits perm bit granule =
  Char.code (String.unsafe_get perm granule) land bit <> 0

(* The full [Mpu.check], run only once the table has denied [access]:
   it flags the violation, and the fault reports it. *)
let deny t access addr =
  match Mpu.check t.mpu access addr with
  | Mpu.Allowed -> ()
  | Mpu.Violation segment ->
    raise (Fault (Mpu_violation { access; addr; pc = pc_of t; segment }))

(* One table load and a bit test.  [addr] must be masked to 16 bits. *)
let[@inline] mpu_check t access bit addr =
  if not (permits t.mpu.Mpu.perm bit (addr lsr Mpu.granule_shift)) then
    deny t access addr

(* The bus's map of the address space, one entry per 256 B page:
   backing [m]emory, [p]eripheral registers or [u]nmapped.  Every
   region edge falls on a page boundary except FRAM/vectors at 0xFF80,
   and the bus treats those two alike, so the table is exact for all
   65 536 addresses ([Memory_map.region_of_addr] stays the
   specification). *)
let page_kind =
  String.init 256 (fun p ->
      match Memory_map.region_of_addr (p lsl 8) with
      | Memory_map.Peripherals -> 'p'
      | Memory_map.Unmapped -> 'u'
      | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
      | Memory_map.Vectors | Memory_map.Bootstrap -> 'm')

(* Backing memory without a call into [Memory].  [addr] must be masked
   to 16 bits; a word is aligned down.  A store sets the bytes itself
   only in a page that is written and not watched, which needs no
   bookkeeping; any other store goes through [Memory.write], which
   keeps the books (see memory.mli). *)
let[@inline] load_mem t width addr =
  let d = t.mem.Memory.data in
  match width with
  | Word.W8 -> Char.code (Bytes.unsafe_get d addr)
  | Word.W16 ->
    let a = addr land 0xFFFE in
    Char.code (Bytes.unsafe_get d a)
    lor (Char.code (Bytes.unsafe_get d (a + 1)) lsl 8)

let[@inline] store_mem t width addr v =
  let mem = t.mem in
  if Bytes.unsafe_get mem.Memory.state (addr lsr 8) = Memory.written_only
  then begin
    let d = mem.Memory.data in
    match width with
    | Word.W8 -> Bytes.unsafe_set d addr (Char.unsafe_chr (v land 0xFF))
    | Word.W16 ->
      let a = addr land 0xFFFE in
      Bytes.unsafe_set d a (Char.unsafe_chr (v land 0xFF));
      Bytes.unsafe_set d (a + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
  end
  else Memory.write mem width addr v

let bus_read t width addr =
  let addr = addr land 0xFFFF in
  match String.unsafe_get page_kind (addr lsr 8) with
  | 'm' ->
    mpu_check t Mpu.Dread read_bit addr;
    let value = load_mem t width addr in
    t.stats.Trace.data_reads <- t.stats.Trace.data_reads + 1;
    (match watcher t with
    | None -> ()
    | Some f -> f (Trace.Mem_read { addr; width; value; pc = pc_of t }));
    value
  | 'p' -> peripheral_read t width addr
  | _ -> raise (Fault (Unmapped { addr; pc = pc_of t; write = false }))

let fetch t addr =
  let addr = addr land 0xFFFF in
  match String.unsafe_get page_kind (addr lsr 8) with
  | 'm' ->
    mpu_check t Mpu.Exec exec_bit addr;
    let value = load_mem t Word.W16 addr in
    t.stats.Trace.fetch_words <- t.stats.Trace.fetch_words + 1;
    value
  | 'p' -> peripheral_read t Word.W16 addr
  | _ -> raise (Fault (Unmapped { addr; pc = pc_of t; write = false }))

let bus_write t width addr v =
  let addr = addr land 0xFFFF in
  match String.unsafe_get page_kind (addr lsr 8) with
  | 'm' -> (
    mpu_check t Mpu.Dwrite write_bit addr;
    store_mem t width addr v;
    t.stats.Trace.data_writes <- t.stats.Trace.data_writes + 1;
    match watcher t with
    | None -> ()
    | Some f ->
      let value = norm width v in
      f (Trace.Mem_write { addr; width; value; pc = pc_of t }))
  | 'p' -> peripheral_write t width addr v
  | _ -> raise (Fault (Unmapped { addr; pc = pc_of t; write = true }))

(* The lookup in front of [blocks]: a direct-mapped slot per pc, tag
   checked against the block's entry pc.  At 256 slots none of the
   54.75 block dispatches of a gateheavy dispatch misses into the table
   (10 did at 64 slots, 8 at 128), and a steady_day device misses 6.1
   of its 352.5 (48.8 at 64, 22.6 at 128). *)
let lookup_slots = 256
let lookup_slot pc = (pc lsr 1) land (lookup_slots - 1)

let no_block =
  {
    pre =
      { Predecode.b_uops = [||]; b_lo = -1; b_hi = -1; b_mpu_key = -1 };
    execs = [||];
    bursts = [||];
  }

let create () =
  {
    mem = Memory.create ();
    mpu = Mpu.create ();
    timer = Timer.create ();
    cpu = Cpu.create ();
    stats = Trace.create_stats ();
    console = Buffer.create 64;
    halted = false;
    sw_fault = None;
    host_call = (fun _ _ -> ());
    on_event = None;
    on_step = None;
    emit_hook = None;
    in_step = false;
    hooked = false;
    extra_cycles = 0;
    blocks = Hashtbl.create 256;
    lookup = Array.make lookup_slots no_block;
    code_drained = 0;
  }

let load_words t ~addr words = Memory.blit_words t.mem ~addr words
let load_bytes t ~addr b = Memory.blit t.mem ~addr b

let set_reset_vector t entry =
  Memory.write_word t.mem Memory_map.reset_vector entry

let drop_blocks t =
  Hashtbl.reset t.blocks;
  Array.fill t.lookup 0 lookup_slots no_block;
  Memory.clear_code_watches t.mem;
  t.code_drained <- t.mem.Memory.code_gen

let reset t =
  t.halted <- false;
  t.sw_fault <- None;
  Trace.reset_stats t.stats;
  t.extra_cycles <- 0;
  Buffer.clear t.console;
  drop_blocks t;
  Registers.set_pc (regs t) (Memory.read_word t.mem Memory_map.reset_vector);
  Registers.set_sp (regs t) Memory_map.sram_limit

type snapshot = {
  s_mem : Memory.snapshot;
  s_regs : Registers.t;
  s_cycles : int;
  s_insns : int;
  s_extra_cycles : int;
  s_stats : Trace.stats;
  s_mpu : Mpu.t;
  s_timer : Timer.t;
  s_console : string;
  s_halted : bool;
  s_sw_fault : int option;
  s_host_call : t -> int -> unit;
  s_on_event : (Trace.event -> unit) option;
  s_on_step : (t -> unit) option;
}

let copy_stats ~(from : Trace.stats) (s : Trace.stats) =
  s.Trace.fetch_words <- from.Trace.fetch_words;
  s.Trace.data_reads <- from.Trace.data_reads;
  s.Trace.data_writes <- from.Trace.data_writes

let snapshot t =
  let stats = Trace.create_stats () and mpu = Mpu.create () in
  let timer = Timer.create () in
  copy_stats ~from:t.stats stats;
  Mpu.assign mpu ~from:t.mpu;
  Timer.assign timer ~from:t.timer;
  {
    s_mem = Memory.snapshot t.mem;
    s_regs = Registers.copy (regs t);
    s_cycles = t.cpu.Cpu.cycles;
    s_insns = t.cpu.Cpu.insns;
    s_extra_cycles = t.extra_cycles;
    s_stats = stats;
    s_mpu = mpu;
    s_timer = timer;
    s_console = Buffer.contents t.console;
    s_halted = t.halted;
    s_sw_fault = t.sw_fault;
    s_host_call = t.host_call;
    s_on_event = t.on_event;
    s_on_step = t.on_step;
  }

(* The block cache is kept: [Memory.restore] queues each restored page
   holding watched code as a dirty span, and the next
   [sync_code_cache] flushes the blocks there.  A block's [b_mpu_key]
   stays valid, since the permission table is a function of the key
   alone. *)
let restore t s =
  Memory.restore t.mem s.s_mem;
  Array.blit s.s_regs 0 (regs t) 0 (Array.length s.s_regs);
  t.cpu.Cpu.cycles <- s.s_cycles;
  t.cpu.Cpu.insns <- s.s_insns;
  t.extra_cycles <- s.s_extra_cycles;
  copy_stats ~from:s.s_stats t.stats;
  Mpu.assign t.mpu ~from:s.s_mpu;
  Timer.assign t.timer ~from:s.s_timer;
  Buffer.clear t.console;
  Buffer.add_string t.console s.s_console;
  t.halted <- s.s_halted;
  t.sw_fault <- s.s_sw_fault;
  t.host_call <- s.s_host_call;
  t.on_event <- s.s_on_event;
  t.on_step <- s.s_on_step;
  t.emit_hook <- s.s_on_event;
  t.in_step <- false

(* ------------------------------------------------------------------ *)
(* Specialised executors.                                              *)
(* ------------------------------------------------------------------ *)

(* Each predecoded uop gets its own closure, built once with its block:
   the operation picked, the width's mask and sign bit held as
   constants, and every operand address that does not depend on a
   register (absolute, x(PC), the jump target) folded in.  They restate
   [Cpu], which stays the specification, and keep its order of effects
   so a fault mid-instruction leaves the same state: the source is
   resolved and read first (@Rn+ increments before the read), the
   destination is resolved after it, the value is written before the
   flags, and CALL reads its target before pushing the return address.
   The caller has already advanced PC and charges the cost afterwards.

   Operand locations are ints held by the closure: a register [d >= 0],
   or memory ([d = -1]) at [base] (a register, or -1 for none) plus
   [off], where an autoincrement [inc <> 0] uses [base] itself and then
   moves it.  An ALU result is packed as in [Cpu]: the value in bits
   0-15, C/Z/N/V at their SR positions from bit 16. *)

let flag_bits =
  Registers.bit_c lor Registers.bit_z lor Registers.bit_n lor Registers.bit_v

(* SP stays word-aligned even for byte pops. *)
let autoinc w r =
  if r = Registers.sp then 2 else match w with Word.W8 -> 1 | Word.W16 -> 2

let[@inline] packed sg v cv =
  let f = if v = 0 then cv lor Registers.bit_z else cv in
  v lor ((if v land sg <> 0 then f lor Registers.bit_n else f) lsl 16)

let[@inline] set_flags (rg : Registers.t) r =
  rg.(Registers.sr) <- rg.(Registers.sr) land lnot flag_bits lor (r lsr 16)

let[@inline] carry (rg : Registers.t) = rg.(Registers.sr) land Registers.bit_c

(* [a + b + cin]: SUB and CMP pass [~s] and 1, SUBC [~s] and C. *)
let[@inline] add m sg a b cin =
  let raw = a + b + cin in
  let v = raw land m in
  packed sg v
    ((if raw > m then Registers.bit_c else 0)
    lor
    if (a lxor v) land (b lxor v) land sg <> 0 then Registers.bit_v else 0)

(* AND, BIT, XOR: C is "result non-zero". *)
let[@inline] logic sg v ovf =
  packed sg v ((if v <> 0 then Registers.bit_c else 0) lor ovf)

let dadd w m sg a b cin =
  let digits = match w with Word.W8 -> 2 | Word.W16 -> 4 in
  let rec go i acc c =
    if i = digits then
      packed sg (acc land m) (if c = 1 then Registers.bit_c else 0)
    else
      let sh = 4 * i in
      let s = ((a lsr sh) land 0xF) + ((b lsr sh) land 0xF) + c in
      if s > 9 then go (i + 1) (acc lor ((s - 10) lsl sh)) 1
      else go (i + 1) (acc lor (s lsl sh)) 0
  in
  go 0 0 cin

let[@inline] addr_of (rg : Registers.t) base off inc =
  if base < 0 then off
  else
    let a = rg.(base) in
    if inc = 0 then (a + off) land 0xFFFF
    else begin
      rg.(base) <- (a + inc) land 0xFFFF;
      a
    end

(* A location's address, then its value and its write-back. *)
let[@inline] loc_addr rg d base off inc =
  if d >= 0 then 0 else addr_of rg base off inc

let[@inline] loc_read t w m (rg : Registers.t) d a =
  if d >= 0 then rg.(d) land m else bus_read t w a

let[@inline] loc_write t w (rg : Registers.t) d a v =
  if d >= 0 then rg.(d) <- v else bus_write t w a v

(* A location as its four ints: a register is [(r, _, _, _)]. *)
let src_loc w ~ext = function
  | Opcode.S_reg r -> (r, 0, 0, 0)
  | Opcode.S_indexed (r, x) when r = Registers.pc ->
    (-1, -1, (ext + x) land 0xFFFF, 0)
  | Opcode.S_indexed (r, x) -> (-1, r, x, 0)
  | Opcode.S_absolute a -> (-1, -1, a land 0xFFFF, 0)
  | Opcode.S_indirect r -> (-1, r, 0, 0)
  | Opcode.S_indirect_inc r -> (-1, r, 0, autoinc w r)
  | Opcode.S_immediate _ -> invalid_arg "Machine: immediate location"

let dst_loc ~ext = function
  | Opcode.D_reg r -> (r, 0, 0)
  | Opcode.D_indexed (r, x) when r = Registers.pc ->
    (-1, -1, (ext + x) land 0xFFFF)
  | Opcode.D_indexed (r, x) -> (-1, r, x)
  | Opcode.D_absolute a -> (-1, -1, a land 0xFFFF)

(* The source operand's value, width-masked. *)
let src_reader w ~ext src : t -> int =
  let m = Word.mask w in
  match src with
  | Opcode.S_reg r -> fun t -> (regs t).(r) land m
  | Opcode.S_immediate n ->
    let v = n land m in
    fun _ -> v
  | _ ->
    let _, base, off, inc = src_loc w ~ext src in
    fun t -> bus_read t w (addr_of (regs t) base off inc)

(* A flag-setting result written back, then its flags. *)
let[@inline] store t w rg d a r =
  loc_write t w rg d a (r land 0xFFFF);
  set_flags rg r

let fmt1 op w src ~src_ext dst ~dst_ext : t -> unit =
  let m = Word.mask w and sg = Word.sign_bit w in
  let src = src_reader w ~ext:src_ext src in
  let d, base, off = dst_loc ~ext:dst_ext dst in
  match op with
  | Opcode.MOV ->
    fun t ->
      let s = src t in
      let rg = regs t in
      loc_write t w rg d (loc_addr rg d base off 0) s
  | Opcode.BIC ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      loc_write t w rg d a (loc_read t w m rg d a land lnot s)
  | Opcode.BIS ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      loc_write t w rg d a (loc_read t w m rg d a lor s)
  | Opcode.ADD ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      store t w rg d a (add m sg (loc_read t w m rg d a) s 0)
  | Opcode.ADDC ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      let dv = loc_read t w m rg d a in
      store t w rg d a (add m sg dv s (carry rg))
  | Opcode.SUB ->
    fun t ->
      let s = lnot (src t) land m in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      store t w rg d a (add m sg (loc_read t w m rg d a) s 1)
  | Opcode.SUBC ->
    fun t ->
      let s = lnot (src t) land m in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      let dv = loc_read t w m rg d a in
      store t w rg d a (add m sg dv s (carry rg))
  | Opcode.CMP ->
    fun t ->
      let s = lnot (src t) land m in
      let rg = regs t in
      let dv = loc_read t w m rg d (loc_addr rg d base off 0) in
      set_flags rg (add m sg dv s 1)
  | Opcode.DADD ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      let dv = loc_read t w m rg d a in
      store t w rg d a (dadd w m sg dv s (carry rg))
  | Opcode.BIT ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let dv = loc_read t w m rg d (loc_addr rg d base off 0) in
      set_flags rg (logic sg (s land dv) 0)
  | Opcode.XOR ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      let dv = loc_read t w m rg d a in
      let ovf = if s land dv land sg <> 0 then Registers.bit_v else 0 in
      store t w rg d a (logic sg (s lxor dv) ovf)
  | Opcode.AND ->
    fun t ->
      let s = src t in
      let rg = regs t in
      let a = loc_addr rg d base off 0 in
      store t w rg d a (logic sg (s land loc_read t w m rg d a) 0)

(* SP always moves down a full word, even for PUSH.B; the store itself
   is [w]-sized. *)
let[@inline] push t w v =
  let rg = regs t in
  let sp = (rg.(Registers.sp) - 2) land 0xFFFF in
  rg.(Registers.sp) <- sp;
  bus_write t w sp v

let fmt2 op w src ~ext : t -> unit =
  match op with
  | Opcode.PUSH ->
    let src = src_reader w ~ext src in
    fun t -> push t w (src t)
  | Opcode.CALL ->
    let src = src_reader Word.W16 ~ext src in
    fun t ->
      let target = src t in
      push t Word.W16 (regs t).(Registers.pc);
      (regs t).(Registers.pc) <- target
  | Opcode.RRC | Opcode.RRA | Opcode.SWPB | Opcode.SXT -> (
    let m = Word.mask w and sg = Word.sign_bit w in
    let d, base, off, inc = src_loc w ~ext src in
    match op with
    | Opcode.RRC ->
      fun t ->
        let rg = regs t in
        let a = loc_addr rg d base off inc in
        let v = loc_read t w m rg d a in
        let top = if carry rg <> 0 then sg else 0 in
        store t w rg d a
          (packed sg ((v lsr 1) lor top) (v land Registers.bit_c))
    | Opcode.RRA ->
      fun t ->
        let rg = regs t in
        let a = loc_addr rg d base off inc in
        let v = loc_read t w m rg d a in
        store t w rg d a
          (packed sg ((v lsr 1) lor (v land sg)) (v land Registers.bit_c))
    | Opcode.SWPB ->
      fun t ->
        let rg = regs t in
        let a = loc_addr rg d base off inc in
        let v = loc_read t w m rg d a in
        loc_write t w rg d a (((v land 0xFF) lsl 8) lor (v lsr 8))
    | _ (* SXT *) ->
      fun t ->
        let rg = regs t in
        let a = loc_addr rg d base off inc in
        let v = loc_read t w m rg d a in
        let v = if v land 0x80 <> 0 then v lor 0xFF00 else v land 0xFF in
        store t w rg d a (packed sg v (if v <> 0 then Registers.bit_c else 0)))

let[@inline] sr_bit t bit = (regs t).(Registers.sr) land bit <> 0
let[@inline] jump_to t target = (regs t).(Registers.pc) <- target

let jump c target : t -> unit =
  match c with
  | Opcode.JNE ->
    fun t -> if not (sr_bit t Registers.bit_z) then jump_to t target
  | Opcode.JEQ -> fun t -> if sr_bit t Registers.bit_z then jump_to t target
  | Opcode.JNC ->
    fun t -> if not (sr_bit t Registers.bit_c) then jump_to t target
  | Opcode.JC -> fun t -> if sr_bit t Registers.bit_c then jump_to t target
  | Opcode.JN -> fun t -> if sr_bit t Registers.bit_n then jump_to t target
  | Opcode.JGE ->
    fun t ->
      if sr_bit t Registers.bit_n = sr_bit t Registers.bit_v then
        jump_to t target
  | Opcode.JL ->
    fun t ->
      if sr_bit t Registers.bit_n <> sr_bit t Registers.bit_v then
        jump_to t target
  | Opcode.JMP -> fun t -> jump_to t target

let reti t =
  let rg = regs t in
  let sp = rg.(Registers.sp) in
  let sr = bus_read t Word.W16 sp in
  let pc = bus_read t Word.W16 (sp + 2) in
  rg.(Registers.sp) <- (sp + 4) land 0xFFFF;
  rg.(Registers.sr) <- sr;
  rg.(Registers.pc) <- pc

let compile (u : Predecode.uop) : t -> unit =
  match u.Predecode.u_instr with
  | Opcode.Fmt1 (op, w, src, dst) ->
    fmt1 op w src ~src_ext:u.Predecode.u_src_ext dst
      ~dst_ext:u.Predecode.u_dst_ext
  | Opcode.Fmt2 (op, w, src) -> fmt2 op w src ~ext:u.Predecode.u_src_ext
  | Opcode.Jump (c, _) -> jump c u.Predecode.u_target
  | Opcode.Reti -> reti

(* ------------------------------------------------------------------ *)
(* Fused stack runs.                                                   *)
(* ------------------------------------------------------------------ *)

(* A stack run as one step (see [block.bursts] in machine.mli): its
   sums are taken here, once.  Testing only the two ends of the run's
   bytes is enough while a run covers no more than one granule: it
   then spans at most two granules and two pages (a page is two
   granules).  A run has at most [max_uops] uops of two bytes each. *)
let () = assert (2 * Predecode.max_uops <= 1 lsl Mpu.granule_shift)

let[@inline] backed a = String.unsafe_get page_kind (a lsr 8) = 'm'

let[@inline] granted t bit a =
  permits t.mpu.Mpu.perm bit (a lsr Mpu.granule_shift)

let[@inline] written t a =
  Bytes.unsafe_get t.mem.Memory.state (a lsr 8) = Memory.written_only

let burst (uops : Predecode.uop array) i : t -> bool =
  let run = Array.sub uops i uops.(i).Predecode.u_run in
  let k = Array.length run in
  let sum f = Array.fold_left (fun n u -> n + f u) 0 run in
  let words = sum (fun u -> u.Predecode.u_words)
  and cost = sum (fun u -> u.Predecode.u_cost) in
  let last = run.(k - 1) in
  let next = (last.Predecode.u_pc + last.Predecode.u_len) land 0xFFFF in
  let bytes = 2 * k in
  let charge t =
    let stats = t.stats and cpu = t.cpu in
    stats.Trace.fetch_words <- stats.Trace.fetch_words + words;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
    cpu.Cpu.insns <- cpu.Cpu.insns + k;
    cpu.Cpu.regs.(Registers.pc) <- next
  in
  let named =
    Array.map
      (fun u ->
        match u.Predecode.u_instr with
        | Opcode.Fmt2 (_, _, Opcode.S_reg r)
        | Opcode.Fmt1 (_, _, _, Opcode.D_reg r) ->
          r
        | _ -> invalid_arg "Machine.burst: not a stack run")
      run
  in
  match uops.(i).Predecode.u_instr with
  | Opcode.Fmt2 (Opcode.PUSH, _, _) ->
    fun t ->
      let rg = regs t in
      let sp = rg.(Registers.sp) in
      let lo = sp - bytes and hi = sp - 1 in
      sp land 1 = 0 && lo >= 0 && backed lo && backed hi && written t lo
      && written t hi && granted t write_bit lo && granted t write_bit hi
      && begin
        let d = t.mem.Memory.data in
        for j = 0 to k - 1 do
          let a = sp - (2 * (j + 1)) and v = rg.(Array.unsafe_get named j) in
          Bytes.unsafe_set d a (Char.unsafe_chr (v land 0xFF));
          Bytes.unsafe_set d (a + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
        done;
        rg.(Registers.sp) <- lo;
        t.stats.Trace.data_writes <- t.stats.Trace.data_writes + k;
        charge t;
        true
      end
  | _ ->
    fun t ->
      let rg = regs t in
      let sp = rg.(Registers.sp) in
      let hi = sp + bytes - 1 in
      sp land 1 = 0 && hi <= 0xFFFF && backed sp && backed hi
      && granted t read_bit sp && granted t read_bit hi
      && begin
        let d = t.mem.Memory.data in
        for j = 0 to k - 1 do
          let a = sp + (2 * j) in
          rg.(Array.unsafe_get named j) <-
            Char.code (Bytes.unsafe_get d a)
            lor (Char.code (Bytes.unsafe_get d (a + 1)) lsl 8)
        done;
        rg.(Registers.sp) <- (sp + bytes) land 0xFFFF;
        t.stats.Trace.data_reads <- t.stats.Trace.data_reads + k;
        charge t;
        true
      end

(* A block's fused steps are built when the lean runner first reaches
   one of its runs: the careful loop never reads them, and a campaign
   pass, whose cells run watched, builds 1 916 blocks and 770 runs.
   Until then, and for good in a block without a run, [bursts] is this
   one shared empty array. *)
let no_bursts : (t -> bool) array = [||]
let unfused (_ : t) = false

let burst_at b i =
  if b.bursts == no_bursts then
    b.bursts <-
      Array.mapi
        (fun i u ->
          if u.Predecode.u_run > 0 then burst b.pre.Predecode.b_uops i
          else unfused)
        b.pre.Predecode.b_uops;
  Array.unsafe_get b.bursts i

(* ------------------------------------------------------------------ *)
(* The interpreter: one loop over predecoded blocks.                  *)
(* ------------------------------------------------------------------ *)

(* Drop cached blocks overlapping spans written since the last drain,
   from the table and from the lookup.  One integer compare when
   nothing changed. *)
let sync_code_cache t =
  if t.mem.Memory.code_gen <> t.code_drained then begin
    let spans = Memory.take_dirty_code t.mem in
    t.code_drained <- t.mem.Memory.code_gen;
    let stale =
      Hashtbl.fold
        (fun pc b acc ->
          let { Predecode.b_lo; b_hi; _ } = b.pre in
          if List.exists (fun (a, l) -> a < b_hi && a + l > b_lo) spans then
            pc :: acc
          else acc)
        t.blocks []
    in
    List.iter
      (fun pc ->
        Hashtbl.remove t.blocks pc;
        let s = lookup_slot pc in
        if t.lookup.(s).pre.Predecode.b_lo = pc then t.lookup.(s) <- no_block)
      stale
  end

let block_at t pc =
  let s = lookup_slot pc in
  let b = Array.unsafe_get t.lookup s in
  if b.pre.Predecode.b_lo = pc then b
  else begin
    let b =
      match Hashtbl.find t.blocks pc with
      | b -> b
      | exception Not_found ->
        let pre = Predecode.build ~read_word:(Memory.read_word t.mem) ~pc in
        Memory.watch_code_span t.mem ~lo:pre.Predecode.b_lo
          ~hi:pre.Predecode.b_hi;
        let uops = pre.Predecode.b_uops in
        let b = { pre; execs = Array.map compile uops; bursts = no_bursts } in
        Hashtbl.replace t.blocks pc b;
        b
    in
    Array.unsafe_set t.lookup s b;
    b
  end

(* Is every instruction word of [b] executable under the MPU's current
   configuration?  A pure table scan: the words tile [b_lo, b_hi) two
   bytes apart, so they start in exactly the granules from [b_lo]'s to
   the last word's.  A yes is recorded as [b_mpu_key] and holds until
   the configuration key differs, so a block validated while app k
   runs needs no re-check after the OS round trip. *)
let rec executable perm g last =
  g > last || (permits perm exec_bit g && executable perm (g + 1) last)

let validated t (b : Predecode.block) =
  let mpu = t.mpu in
  b.Predecode.b_mpu_key = mpu.Mpu.key
  || executable mpu.Mpu.perm
       (b.Predecode.b_lo lsr Mpu.granule_shift)
       ((b.Predecode.b_hi - 2) lsr Mpu.granule_shift)
     && begin
       b.Predecode.b_mpu_key <- mpu.Mpu.key;
       true
     end

(* The fetch words of a predecoded uop: bulk-counted while its block is
   validated under the live configuration key, otherwise checked one by
   one in fetch order, each counted only after its check passes.  The
   key is re-read per uop, so an instruction that reconfigures the MPU
   moves the rest of its own block onto the new key.  [exec_from] makes
   the common case, a block validated under the live key, inline and
   calls this only when the block must be re-validated. *)
let fetch_predecoded t b (u : Predecode.uop) =
  let stats = t.stats in
  if validated t b then
    stats.Trace.fetch_words <- stats.Trace.fetch_words + u.Predecode.u_words
  else
    for w = 0 to u.Predecode.u_words - 1 do
      mpu_check t Mpu.Exec exec_bit ((u.Predecode.u_pc + (2 * w)) land 0xFFFF);
      stats.Trace.fetch_words <- stats.Trace.fetch_words + 1
    done

(* The step hook at the boundary before [pc], run with no instruction
   in flight.  False when it moved PC or wrote into predecoded code:
   the block in hand is stale, and [hooked] records that this
   boundary's hook has run, so the re-dispatch does not run it again. *)
let step_hook t f ~pc ~gen0 =
  if t.hooked then begin
    t.hooked <- false;
    true
  end
  else begin
    t.in_step <- false;
    f t;
    t.in_step <- true;
    (pc_of t = pc && t.mem.Memory.code_gen = gen0)
    || begin
      t.hooked <- true;
      false
    end
  end

(* The careful loop: run [b] from uop [i] until the block ends, the
   machine stops, code is written or fuel runs out, and return the fuel
   left.  At each instruction boundary the step hook runs first, then
   the watcher chain is snapshotted: the instruction's events, and its
   fault if it raises one, go to that snapshot.  PC advances past the
   instruction, its executor runs, and its cost is charged only once it
   has retired.  An empty block decodes one instruction through the
   checked [fetch]. *)
let rec exec_from t b ~gen0 budget i =
  let pre = b.pre in
  let uops = pre.Predecode.b_uops in
  let n = Array.length uops in
  let pc =
    if n = 0 then pre.Predecode.b_lo
    else (Array.unsafe_get uops i).Predecode.u_pc
  in
  if
    match t.on_step with
    | None -> true
    | Some f -> step_hook t f ~pc ~gen0
  then begin
    let w = t.on_event in
    if w != t.emit_hook then t.emit_hook <- w;
    let u =
      if n = 0 then Predecode.decode ~fetch:(fetch t) ~pc
      else begin
        let u = Array.unsafe_get uops i in
        (if pre.Predecode.b_mpu_key = t.mpu.Mpu.key then
           t.stats.Trace.fetch_words <-
             t.stats.Trace.fetch_words + u.Predecode.u_words
         else fetch_predecoded t pre u);
        u
      end
    in
    let cpu = t.cpu in
    cpu.Cpu.regs.(Registers.pc) <-
      (u.Predecode.u_pc + u.Predecode.u_len) land 0xFFFF;
    (if n = 0 then compile u else Array.unsafe_get b.execs i) t;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + u.Predecode.u_cost;
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    (match t.emit_hook with
    | None -> ()
    | Some f -> f (Trace.Exec { pc; instr = u.Predecode.u_instr }));
    let budget = budget - 1 in
    if
      i + 1 < n
      && (not t.halted)
      && (match t.sw_fault with None -> true | Some _ -> false)
      && t.mem.Memory.code_gen = gen0
      && budget <> 0
    then exec_from t b ~gen0 budget (i + 1)
    else budget
  end
  else budget

(* The lean runner: [b] from uop [i] with no hook or watcher armed, the
   block validated under the live key and fuel for all of it.  Per uop
   it does what [exec_from] does for such a block: fetch words counted,
   PC advanced, the executor run, cost and retirement charged.  Only a
   uop that may store can halt the machine, raise a software fault,
   write code, change the MPU key or arm a hook (through a port, the
   host call or memory), so only after one are those checked: a stop
   or a code write ends the block as in [exec_from], a block that no
   longer validates or a new hook hands the rest of it to
   [exec_from].  At a stack run's first uop the run's fused step goes
   first; when it runs, its stores went to written, unwatched memory
   pages only, so none of those checks follows it. *)
let rec lean t b ~gen0 budget i =
  let u = Array.unsafe_get b.pre.Predecode.b_uops i in
  let k = u.Predecode.u_run in
  if k > 0 && (burst_at b i) t then begin
    let budget = budget - k and i = i + k in
    if i = Array.length b.execs then budget else lean t b ~gen0 budget i
  end
  else begin
    let stats = t.stats and cpu = t.cpu in
    stats.Trace.fetch_words <- stats.Trace.fetch_words + u.Predecode.u_words;
    cpu.Cpu.regs.(Registers.pc) <-
      (u.Predecode.u_pc + u.Predecode.u_len) land 0xFFFF;
    (Array.unsafe_get b.execs i) t;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + u.Predecode.u_cost;
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    let budget = budget - 1 and i = i + 1 in
    if i = Array.length b.execs then budget
    else if not u.Predecode.u_stores then lean t b ~gen0 budget i
    else if
      t.halted
      || (match t.sw_fault with None -> false | Some _ -> true)
      || t.mem.Memory.code_gen <> gen0
    then budget
    else
      match (t.on_step, t.on_event) with
      | None, None when validated t b.pre -> lean t b ~gen0 budget i
      | _ -> exec_from t b ~gen0 budget i
  end

(* An unobserved block, with fuel for every uop and validated under the
   live key, runs lean; anything else runs in the careful loop.  A lean
   block's watcher snapshot is empty throughout: a watcher armed in it
   hands the rest over to [exec_from], which takes a new one. *)
let run_block t b budget =
  let gen0 = t.mem.Memory.code_gen in
  let n = Array.length b.execs in
  match (t.on_step, t.on_event) with
  | None, None when n > 0 && n <= budget && validated t b.pre ->
    t.emit_hook <- None;
    lean t b ~gen0 budget 0
  | _ -> exec_from t b ~gen0 budget 0

let faulted t f =
  emit t (Trace.Fault_event (Format.asprintf "%a" pp_fault f));
  t.in_step <- false;
  Faulted f

(* Stop checks at every block boundary, except one whose hook already
   ran: that boundary commits to its instruction. *)
let rec loop t budget =
  if t.hooked then dispatch t budget
  else if t.halted then Halted
  else
    match t.sw_fault with
    | Some code -> Sw_fault code
    | None -> if budget = 0 then Out_of_fuel else dispatch t budget

and dispatch t budget =
  sync_code_cache t;
  let b = block_at t (pc_of t) in
  t.in_step <- true;
  match run_block t b budget with
  | budget ->
    t.in_step <- false;
    loop t budget
  | exception Fault f -> faulted t f
  | exception Decode.Illegal word ->
    faulted t (Illegal_instruction { pc = pc_of t; word })

let run ?(fuel = 10_000_000) t =
  t.hooked <- false;
  loop t fuel

let mem_checked_read t width addr = load_mem t width (addr land 0xFFFF)

let mem_checked_write t width addr v =
  store_mem t width (addr land 0xFFFF) v

let console_contents t = Buffer.contents t.console
