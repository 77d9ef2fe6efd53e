type access = Exec | Dread | Dwrite
type segment = Seg_info | Seg1 | Seg2 | Seg3
type check_result = Allowed | Violation of segment

type t = {
  mutable ctl0 : int; (* MPUENA / MPULOCK / MPUSEGIE bits *)
  mutable ctl1 : int; (* violation interrupt flags *)
  mutable segb1 : int; (* boundary register: address / 16 *)
  mutable segb2 : int;
  mutable sam : int; (* nibble per segment: RE/WE/XE/VS *)
  mutable gen : int; (* accepted configuration writes *)
  mutable key : int; (* packed ena|segb1|segb2|sam; 0 while disabled *)
  mutable perm : string; (* one entry per granule, derived from [key] *)
  mutable memo : (int * string) list;
      (* tables already derived for this unit by key, newest first *)
}

let ctl0_addr = 0x05A0
let ctl1_addr = 0x05A2
let segb2_addr = 0x05A4
let segb1_addr = 0x05A6
let sam_addr = 0x05A8

let bit_ena = 0x0001
let bit_lock = 0x0002
let password = 0xA5
let granule = 0x400
let border addr = ((addr + granule - 1) land lnot (granule - 1)) lsr 4

let default_sam =
  (* Power-up: everything readable/writable/executable. *)
  0x7777

(* The segment map: the specification the permission table is built
   from. *)

let align_boundary raw =
  let addr = (raw lsl 4) land 0xFFFF in
  let addr = addr land lnot (granule - 1) in
  (* Boundaries are meaningful only inside main FRAM. *)
  min (max addr Memory_map.fram_start) Memory_map.fram_limit

let boundary1 t = align_boundary t.segb1
let boundary2 t = align_boundary t.segb2

let segment_between ~b1 ~b2 addr =
  if addr >= Memory_map.info_mem_start && addr < Memory_map.info_mem_limit
  then Some Seg_info
  else if addr >= Memory_map.fram_start && addr < Memory_map.fram_limit then
    if addr < b1 then Some Seg1 else if addr < b2 then Some Seg2 else Some Seg3
  else None

let segment_of_addr t addr =
  segment_between ~b1:(boundary1 t) ~b2:(boundary2 t) addr

let seg_nibble t = function
  | Seg1 -> t.sam land 0xF
  | Seg2 -> (t.sam lsr 4) land 0xF
  | Seg3 -> (t.sam lsr 8) land 0xF
  | Seg_info -> (t.sam lsr 12) land 0xF

let access_bit = function Dread -> 0x1 | Dwrite -> 0x2 | Exec -> 0x4

let flag_bit = function
  | Seg1 -> 0x0001
  | Seg2 -> 0x0002
  | Seg3 -> 0x0004
  | Seg_info -> 0x0008

(* Permission table: one byte per 128 B granule, the access bits it
   allows (MPUSAM's RE/WE/XE positions) plus its segment in bits 4-5.
   Every segment-map edge (InfoMem, FRAM, the 1 KiB-snapped boundaries
   and the vector page at 0xFF80) falls on a 128 B multiple, so one
   entry per granule is exact for every address. *)

let granule_shift = 7
let granules = Memory_map.address_space lsr granule_shift
let all_access = 0x7

let seg_code = function Seg1 -> 0 | Seg2 -> 1 | Seg3 -> 2 | Seg_info -> 3
let seg_of_code = function 0 -> Seg1 | 1 -> Seg2 | 2 -> Seg3 | _ -> Seg_info

let allow_all = String.make granules (Char.chr all_access)

let build_perm t =
  let b1 = boundary1 t and b2 = boundary2 t in
  String.init granules (fun g ->
      match segment_between ~b1 ~b2 (g lsl granule_shift) with
      | None -> Char.chr all_access
      | Some seg ->
        Char.chr (seg_nibble t seg land all_access lor (seg_code seg lsl 4)))

let memo_size = 8

let config_key t =
  if t.ctl0 land bit_ena = 0 then 0
  else 1 lor (t.segb1 lsl 1) lor (t.segb2 lsl 13) lor (t.sam lsl 25)

let rec memo_find (key : int) = function
  | [] -> raise Not_found
  | (k, perm) :: tl -> if k = key then perm else memo_find key tl

(* Re-derive [key] and [perm] after any change to the configuration. *)
let refresh t =
  let key = config_key t in
  if key <> t.key then begin
    t.key <- key;
    t.perm <-
      (if key = 0 then allow_all
       else
         match memo_find key t.memo with
         | perm -> perm
         | exception Not_found ->
           let perm = build_perm t in
           t.memo <-
             (key, perm) :: List.filteri (fun i _ -> i < memo_size - 1) t.memo;
           perm)
  end

let create () =
  {
    ctl0 = 0; ctl1 = 0; segb1 = 0; segb2 = 0; sam = default_sam; gen = 0;
    key = 0; perm = allow_all; memo = [];
  }

(* Every configuration change ends here: count it, re-derive the table. *)
let changed t =
  t.gen <- t.gen + 1;
  refresh t

let reset t =
  t.ctl0 <- 0;
  t.ctl1 <- 0;
  t.segb1 <- 0;
  t.segb2 <- 0;
  t.sam <- default_sam;
  changed t

let gen t = t.gen

let assign t ~from =
  t.ctl0 <- from.ctl0;
  t.ctl1 <- from.ctl1;
  t.segb1 <- from.segb1;
  t.segb2 <- from.segb2;
  t.sam <- from.sam;
  t.gen <- from.gen;
  t.key <- from.key;
  t.perm <- from.perm

let handles addr =
  addr >= ctl0_addr && addr <= sam_addr && addr land 1 = 0

let enabled t = t.ctl0 land bit_ena <> 0
let locked t = t.ctl0 land bit_lock <> 0

type write_result = Write_ok | Bad_password | Locked_ignored

let mmio_write t addr v =
  if addr = ctl0_addr || addr = ctl1_addr then
    (* Control registers demand the 0xA5 password in the high byte. *)
    if (v lsr 8) land 0xFF <> password then Bad_password
    else if locked t && addr = ctl0_addr then Locked_ignored
    else begin
      if addr = ctl0_addr then t.ctl0 <- v land 0xFF
      else t.ctl1 <- t.ctl1 land lnot (v land 0xFF);
      changed t;
      Write_ok
    end
  else if locked t then Locked_ignored
  else begin
    (if addr = segb2_addr then t.segb2 <- v land 0xFFF
     else if addr = segb1_addr then t.segb1 <- v land 0xFFF
     else if addr = sam_addr then t.sam <- v land 0xFFFF);
    changed t;
    Write_ok
  end

let mmio_read t addr =
  if addr = ctl0_addr then 0x9600 lor t.ctl0
  else if addr = ctl1_addr then t.ctl1
  else if addr = segb2_addr then t.segb2
  else if addr = segb1_addr then t.segb1
  else if addr = sam_addr then t.sam
  else 0

let check t access addr =
  let e =
    Char.code (String.unsafe_get t.perm ((addr land 0xFFFF) lsr granule_shift))
  in
  if e land access_bit access <> 0 then Allowed
  else begin
    let seg = seg_of_code (e lsr 4) in
    t.ctl1 <- t.ctl1 lor flag_bit seg;
    Violation seg
  end

let violation_flags t = t.ctl1

type raw_reg = Raw_ctl0 | Raw_ctl1 | Raw_segb1 | Raw_segb2 | Raw_sam

let raw_reg_name = function
  | Raw_ctl0 -> "MPUCTL0"
  | Raw_ctl1 -> "MPUCTL1"
  | Raw_segb1 -> "MPUSEGB1"
  | Raw_segb2 -> "MPUSEGB2"
  | Raw_sam -> "MPUSAM"

let raw_get t = function
  | Raw_ctl0 -> t.ctl0
  | Raw_ctl1 -> t.ctl1
  | Raw_segb1 -> t.segb1
  | Raw_segb2 -> t.segb2
  | Raw_sam -> t.sam

(* Fault-injection backdoor: models a physical upset of the register
   cell itself, so it bypasses the password and the lock on purpose. *)
let raw_set t reg v =
  (match reg with
  | Raw_ctl0 -> t.ctl0 <- v land 0xFF
  | Raw_ctl1 -> t.ctl1 <- v land 0xFF
  | Raw_segb1 -> t.segb1 <- v land 0xFFF
  | Raw_segb2 -> t.segb2 <- v land 0xFFF
  | Raw_sam -> t.sam <- v land 0xFFFF);
  changed t

let configure t ~b1 ~b2 ~sam ~enable =
  if not (locked t) then begin
    t.segb1 <- (b1 lsr 4) land 0xFFF;
    t.segb2 <- (b2 lsr 4) land 0xFFF;
    t.sam <- sam land 0xFFFF;
    t.ctl0 <- (if enable then bit_ena else 0);
    changed t
  end

let sam_bits ~seg1 ~seg2 ~seg3 ?(info = "") () =
  let nib s =
    let b = ref 0 in
    String.iter
      (fun c ->
        match c with
        | 'r' -> b := !b lor 0x1
        | 'w' -> b := !b lor 0x2
        | 'x' -> b := !b lor 0x4
        | _ -> invalid_arg "Mpu.sam_bits")
      s;
    !b
  in
  nib seg1 lor (nib seg2 lsl 4) lor (nib seg3 lsl 8) lor (nib info lsl 12)

let pp ppf t =
  Format.fprintf ppf
    "MPU{ena=%b lock=%b b1=%04X b2=%04X sam=%04X ifg=%X}" (enabled t)
    (locked t) (boundary1 t) (boundary2 t) t.sam t.ctl1
