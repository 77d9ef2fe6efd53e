(* Reference for [Machine]'s data path: the bus as it was before the
   machine decoded regions from a page table and read and stored
   [Memory]'s bytes itself.  Every access decodes its region with
   [Memory_map.region_of_addr], checks the MPU with [Mpu.check] and
   goes through [Memory.read] and [Memory.write]; MMIO goes through
   the machine's own peripheral functions.  Statistics, watcher events
   and faults are the machine's.  [Refstep] executes and fetches
   through it, so the lockstep compares the two data paths. *)

module M = Amulet_mcu.Machine
module Cpu = Amulet_mcu.Cpu
module Memory = Amulet_mcu.Memory
module Memory_map = Amulet_mcu.Memory_map
module Mpu = Amulet_mcu.Mpu
module Registers = Amulet_mcu.Registers
module Trace = Amulet_mcu.Trace
module Word = Amulet_mcu.Word

let pc m = Registers.get_pc (M.regs m)

(* During an instruction, events go to the chain snapshotted at its
   boundary. *)
let watcher m = if m.M.in_step then m.M.emit_hook else m.M.on_event

let mpu_check m access addr =
  match Mpu.check m.M.mpu access addr with
  | Mpu.Allowed -> ()
  | Mpu.Violation segment ->
    raise (M.Fault (M.Mpu_violation { access; addr; pc = pc m; segment }))

let unmapped m addr ~write =
  raise (M.Fault (M.Unmapped { addr; pc = pc m; write }))

let bus_read m width addr =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> M.peripheral_read m width addr
  | Memory_map.Unmapped -> unmapped m addr ~write:false
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check m Mpu.Dread addr;
    let value = Memory.read m.M.mem width addr in
    m.M.stats.Trace.data_reads <- m.M.stats.Trace.data_reads + 1;
    Option.iter
      (fun f -> f (Trace.Mem_read { addr; width; value; pc = pc m }))
      (watcher m);
    value

let fetch m addr =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> M.peripheral_read m Word.W16 addr
  | Memory_map.Unmapped -> unmapped m addr ~write:false
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check m Mpu.Exec addr;
    let value = Memory.read_word m.M.mem addr in
    m.M.stats.Trace.fetch_words <- m.M.stats.Trace.fetch_words + 1;
    value

let bus_write m width addr v =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> M.peripheral_write m width addr v
  | Memory_map.Unmapped -> unmapped m addr ~write:true
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check m Mpu.Dwrite addr;
    Memory.write m.M.mem width addr v;
    m.M.stats.Trace.data_writes <- m.M.stats.Trace.data_writes + 1;
    let value = Word.norm width v in
    Option.iter
      (fun f -> f (Trace.Mem_write { addr; width; value; pc = pc m }))
      (watcher m)

(* A host service's store: raw memory, no region or MPU check. *)
let mem_checked_write m width addr v = Memory.write m.M.mem width addr v

(* This data path as the bus [Cpu]'s executors take. *)
let bus m = { Cpu.read = bus_read m; write = bus_write m }
