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
  mutable extra_cycles : int;
  blocks : (int, Predecode.block) Hashtbl.t;
  mutable code_drained : int;
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

let pc_of t = Registers.get_pc t.cpu.Cpu.regs

let peripheral_read t width addr =
  let v =
    if Mpu.handles addr then Mpu.mmio_read t.mpu addr
    else if Timer.handles addr then
      Timer.mmio_read t.timer ~now:(cycles t) addr
    else 0
  in
  Word.norm width v

let emit_io t addr value =
  match watcher t with
  | None -> ()
  | Some f -> f (Trace.Io_write { addr; value })

let peripheral_write t width addr v =
  let v = Word.norm width v in
  if Mpu.handles addr then begin
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
    if Timer.handles addr then Timer.mmio_write t.timer ~now:(cycles t) addr v
    else if addr = host_call_port then t.host_call t v
    else if addr = console_port then
      Buffer.add_char t.console (Char.chr (v land 0xFF))
    else if addr = halt_port then t.halted <- true
    else if addr = sw_fault_port then t.sw_fault <- Some v
  end

(* Permission-table bits for each access (see [Mpu.t.perm]). *)
let exec_bit = Mpu.access_bit Mpu.Exec
let read_bit = Mpu.access_bit Mpu.Dread
let write_bit = Mpu.access_bit Mpu.Dwrite

let permits perm bit granule =
  Char.code (String.unsafe_get perm granule) land bit <> 0

(* One table load and a bit test; the full [Mpu.check] runs only to
   flag and report a violation.  [addr] must be masked to 16 bits. *)
let mpu_check t access addr =
  let bit =
    match access with
    | Mpu.Exec -> exec_bit
    | Mpu.Dread -> read_bit
    | Mpu.Dwrite -> write_bit
  in
  if not (permits t.mpu.Mpu.perm bit (addr lsr Mpu.granule_shift)) then
    match Mpu.check t.mpu access addr with
    | Mpu.Allowed -> ()
    | Mpu.Violation segment ->
      raise (Fault (Mpu_violation { access; addr; pc = pc_of t; segment }))

let bus_read t width addr =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> peripheral_read t width addr
  | Memory_map.Unmapped ->
    raise (Fault (Unmapped { addr; pc = pc_of t; write = false }))
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check t Mpu.Dread addr;
    let value = Memory.read t.mem width addr in
    t.stats.Trace.data_reads <- t.stats.Trace.data_reads + 1;
    (match watcher t with
    | None -> ()
    | Some f -> f (Trace.Mem_read { addr; width; value; pc = pc_of t }));
    value

let fetch t addr =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> peripheral_read t Word.W16 addr
  | Memory_map.Unmapped ->
    raise (Fault (Unmapped { addr; pc = pc_of t; write = false }))
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check t Mpu.Exec addr;
    let value = Memory.read_word t.mem addr in
    t.stats.Trace.fetch_words <- t.stats.Trace.fetch_words + 1;
    value

let bus_write t width addr v =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> peripheral_write t width addr v
  | Memory_map.Unmapped ->
    raise (Fault (Unmapped { addr; pc = pc_of t; write = true }))
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check t Mpu.Dwrite addr;
    Memory.write t.mem width addr v;
    t.stats.Trace.data_writes <- t.stats.Trace.data_writes + 1;
    match watcher t with
    | None -> ()
    | Some f ->
      f (Trace.Mem_write { addr; width; value = Word.norm width v; pc = pc_of t })

let create () =
  let self = ref None in
  let me () = match !self with Some t -> t | None -> assert false in
  let bus =
    {
      Cpu.read = (fun w a -> bus_read (me ()) w a);
      Cpu.write = (fun w a v -> bus_write (me ()) w a v);
    }
  in
  let t =
    {
      mem = Memory.create ();
      mpu = Mpu.create ();
      timer = Timer.create ();
      cpu = Cpu.create bus;
      stats = Trace.create_stats ();
      console = Buffer.create 64;
      halted = false;
      sw_fault = None;
      host_call = (fun _ _ -> ());
      on_event = None;
      on_step = None;
      emit_hook = None;
      in_step = false;
      extra_cycles = 0;
      blocks = Hashtbl.create 256;
      code_drained = 0;
    }
  in
  self := Some t;
  t

let load_words t ~addr words = Memory.blit_words t.mem ~addr words
let load_bytes t ~addr b = Memory.blit t.mem ~addr b

let set_reset_vector t entry =
  Memory.write_word t.mem Memory_map.reset_vector entry

let reset t =
  t.halted <- false;
  t.sw_fault <- None;
  Trace.reset_stats t.stats;
  t.extra_cycles <- 0;
  Buffer.clear t.console;
  Hashtbl.reset t.blocks;
  Memory.clear_code_watches t.mem;
  t.code_drained <- Memory.code_gen t.mem;
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
(* The interpreter: one loop over predecoded blocks.                  *)
(* ------------------------------------------------------------------ *)

(* Drop cached blocks overlapping spans written since the last drain.
   One integer compare when nothing changed. *)
let sync_code_cache t =
  if Memory.code_gen t.mem <> t.code_drained then begin
    let spans = Memory.take_dirty_code t.mem in
    t.code_drained <- Memory.code_gen t.mem;
    let stale =
      Hashtbl.fold
        (fun pc (b : Predecode.block) acc ->
          if
            List.exists
              (fun (a, l) -> a < b.Predecode.b_hi && a + l > b.Predecode.b_lo)
              spans
          then pc :: acc
          else acc)
        t.blocks []
    in
    List.iter (Hashtbl.remove t.blocks) stale
  end

let block_at t pc =
  match Hashtbl.find t.blocks pc with
  | b -> b
  | exception Not_found ->
    let b = Predecode.build ~read_word:(Memory.read_word t.mem) ~pc in
    Memory.watch_code_span t.mem ~lo:b.Predecode.b_lo ~hi:b.Predecode.b_hi;
    Hashtbl.replace t.blocks pc b;
    b

(* PC advances past the instruction first, then the executors run,
   then cost is charged — so a fault mid-execution leaves registers,
   statistics and cycle counts as they stood at the faulting access. *)
let exec_uop t (u : Predecode.uop) =
  let cpu = t.cpu in
  let regs = cpu.Cpu.regs in
  regs.(Registers.pc) <- (u.Predecode.u_pc + u.Predecode.u_len) land 0xFFFF;
  (match u.Predecode.u_instr with
  | Opcode.Fmt1 (op, width, src, dst) ->
    Cpu.exec_fmt1 cpu op width src dst ~src_ext_addr:u.Predecode.u_src_ext
      ~dst_ext_addr:u.Predecode.u_dst_ext
  | Opcode.Fmt2 (op, width, src) ->
    Cpu.exec_fmt2 cpu op width src ~src_ext_addr:u.Predecode.u_src_ext
  | Opcode.Jump (c, _) ->
    if Cpu.cond_true regs c then regs.(Registers.pc) <- u.Predecode.u_target
  | Opcode.Reti -> Cpu.exec_reti cpu);
  cpu.Cpu.cycles <- cpu.Cpu.cycles + u.Predecode.u_cost;
  cpu.Cpu.insns <- cpu.Cpu.insns + 1

(* Is every instruction word of [b] executable under the MPU's current
   configuration?  A pure table scan: the words tile [b_lo, b_hi) two
   bytes apart, so they start in exactly the granules from [b_lo]'s to
   the last word's.  A yes is recorded as [b_mpu_key] and holds until
   the configuration key differs, so a block validated while app k
   runs needs no re-check after the OS round trip. *)
let validated t (b : Predecode.block) =
  let mpu = t.mpu in
  b.Predecode.b_mpu_key = mpu.Mpu.key
  ||
  let perm = mpu.Mpu.perm in
  let last = (b.Predecode.b_hi - 2) lsr Mpu.granule_shift in
  let rec scan g = g > last || (permits perm exec_bit g && scan (g + 1)) in
  scan (b.Predecode.b_lo lsr Mpu.granule_shift)
  && begin
    b.Predecode.b_mpu_key <- mpu.Mpu.key;
    true
  end

(* The fetch words of a predecoded uop: bulk-counted while its block is
   validated under the live configuration key, otherwise checked one by
   one in fetch order, each counted only after its check passes.  The
   key is re-read per uop, so an instruction that reconfigures the MPU
   moves the rest of its own block onto the new key. *)
let fetch_predecoded t b (u : Predecode.uop) =
  let stats = t.stats in
  if validated t b then
    stats.Trace.fetch_words <- stats.Trace.fetch_words + u.Predecode.u_words
  else
    for w = 0 to u.Predecode.u_words - 1 do
      mpu_check t Mpu.Exec ((u.Predecode.u_pc + (2 * w)) land 0xFFFF);
      stats.Trace.fetch_words <- stats.Trace.fetch_words + 1
    done

(* The step hook at the boundary before [pc], run with no instruction
   in flight.  False when it moved PC or wrote into predecoded code:
   the block in hand is stale, and [hooked] records that this
   boundary's hook has run, so the re-dispatch does not run it again. *)
let step_hook t f ~pc ~gen0 hooked =
  if !hooked then begin
    hooked := false;
    true
  end
  else begin
    t.in_step <- false;
    f t;
    t.in_step <- true;
    (pc_of t = pc && Memory.code_gen t.mem = gen0)
    || begin
      hooked := true;
      false
    end
  end

(* Run [b] from uop [i] until the block ends, the machine stops, code
   is written or fuel runs out.  At each instruction boundary the step
   hook runs first, then the watcher chain is snapshotted: the
   instruction's events, and its fault if it raises one, go to that
   snapshot.  An empty block decodes one instruction through the
   checked [fetch]. *)
let rec exec_from t (b : Predecode.block) ~gen0 budget hooked i =
  let uops = b.Predecode.b_uops in
  let n = Array.length uops in
  let pc =
    if n = 0 then b.Predecode.b_lo else (Array.unsafe_get uops i).Predecode.u_pc
  in
  if
    match t.on_step with
    | None -> true
    | Some f -> step_hook t f ~pc ~gen0 hooked
  then begin
    let w = t.on_event in
    if w != t.emit_hook then t.emit_hook <- w;
    let u =
      if n = 0 then Predecode.decode ~fetch:(fetch t) ~pc
      else begin
        let u = Array.unsafe_get uops i in
        fetch_predecoded t b u;
        u
      end
    in
    exec_uop t u;
    (match t.emit_hook with
    | None -> ()
    | Some f -> f (Trace.Exec { pc; instr = u.Predecode.u_instr }));
    decr budget;
    if
      i + 1 < n
      && not
           (t.halted || t.sw_fault <> None
           || Memory.code_gen t.mem <> gen0
           || !budget = 0)
    then exec_from t b ~gen0 budget hooked (i + 1)
  end

(* One block, returning the fault that stopped it, if any. *)
let run_block t b budget hooked =
  t.in_step <- true;
  let fault =
    match exec_from t b ~gen0:(Memory.code_gen t.mem) budget hooked 0 with
    | () -> None
    | exception Fault f -> Some f
    | exception Decode.Illegal word ->
      Some (Illegal_instruction { pc = pc_of t; word })
  in
  (match fault with
  | Some f -> emit t (Trace.Fault_event (Format.asprintf "%a" pp_fault f))
  | None -> ());
  t.in_step <- false;
  fault

let run ?(fuel = 10_000_000) t =
  let budget = ref fuel and hooked = ref false in
  (* A boundary whose hook already ran commits to its instruction. *)
  let rec loop () =
    if !hooked then dispatch ()
    else if t.halted then Halted
    else
      match t.sw_fault with
      | Some code -> Sw_fault code
      | None -> if !budget = 0 then Out_of_fuel else dispatch ()
  and dispatch () =
    sync_code_cache t;
    match run_block t (block_at t (pc_of t)) budget hooked with
    | None -> loop ()
    | Some f -> Faulted f
  in
  loop ()

let mem_checked_read t width addr = Memory.read t.mem width addr
let mem_checked_write t width addr v = Memory.write t.mem width addr v
let console_contents t = Buffer.contents t.console
