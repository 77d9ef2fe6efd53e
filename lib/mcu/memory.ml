(* Raw byte store plus one state byte per 256 B page.

   Bit 0 ("watched") marks a page holding predecoded code: a write
   there bumps [code_gen] and records a dirty span, which the
   block-dispatch loop drains to flush overlapping cache lines before
   the next block runs.  Bit 1 ("written") marks a page written since
   the last snapshot or restore; its first write pushes the page on
   [written], so a restore visits only those pages.  The data path
   compares the state byte with "written, not watched"
   ([written_only]): an ordinary write costs one byte load and a
   compare, and only a page's first write or a write into watched code
   takes the slow path.  [Machine] makes that compare itself and stores
   into such pages without calling in (see memory.mli). *)

(* Per page: its bytes when the snapshot was taken, or "" for a page
   never written (still zero). *)
type snapshot = string array

type t = {
  data : Bytes.t;
  state : Bytes.t; (* one state byte per 256 B page *)
  written : Bytes.t; (* the pages with the written bit, first write first *)
  mutable nwritten : int;
  mutable base : snapshot;
      (* the latest snapshot: [data] differs from it on written pages only *)
  mutable code_gen : int;
  mutable dirty : (int * int) list; (* (addr, len) spans hitting watched pages *)
}

let pages = Memory_map.address_space lsr 8
let watched_bit = 1
let written_bit = 2
let written_only = Char.chr written_bit

(* The reference of a memory never snapshotted: all zero.  Shared by
   every fresh memory; [snapshot] copies a base, never mutates it. *)
let all_zero : snapshot = Array.make pages ""

let create () =
  {
    data = Bytes.make Memory_map.address_space '\000';
    state = Bytes.make pages '\000';
    written = Bytes.make pages '\000';
    nwritten = 0;
    base = all_zero;
    code_gen = 0;
    dirty = [];
  }

(* The slow path: mark page [p] written (recording its first write)
   and say whether it is watched. *)
let touch t p =
  let s = Char.code (Bytes.unsafe_get t.state p) in
  if s land written_bit = 0 then begin
    Bytes.unsafe_set t.state p (Char.unsafe_chr (s lor written_bit));
    Bytes.unsafe_set t.written t.nwritten (Char.unsafe_chr p);
    t.nwritten <- t.nwritten + 1
  end;
  s land watched_bit <> 0

let dirty t addr len =
  t.code_gen <- t.code_gen + 1;
  t.dirty <- (addr, len) :: t.dirty

(* [addr] must already be masked; a word write is aligned down so both
   its bytes share a page and one state probe covers them. *)
let note t addr len =
  let p = addr lsr 8 in
  if Bytes.unsafe_get t.state p <> written_only && touch t p then
    dirty t addr len

let note_span t ~addr ~len =
  if len > 0 then begin
    let p1 = min ((addr + len - 1) lsr 8) (pages - 1) in
    let hit = ref false in
    for p = addr lsr 8 to p1 do
      if touch t p then hit := true
    done;
    if !hit then dirty t addr len
  end

let read_byte t addr = Char.code (Bytes.get t.data (addr land 0xFFFF))

let write_byte t addr v =
  let addr = addr land 0xFFFF in
  note t addr 1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let read_word t addr =
  let addr = addr land 0xFFFE in
  Char.code (Bytes.get t.data addr)
  lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)

let write_word t addr v =
  let addr = addr land 0xFFFE in
  note t addr 2;
  Bytes.set t.data addr (Char.chr (v land 0xFF));
  Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF))

let read t width addr =
  match width with Word.W8 -> read_byte t addr | Word.W16 -> read_word t addr

let write t width addr v =
  match width with
  | Word.W8 -> write_byte t addr v
  | Word.W16 -> write_word t addr v

let blit t ~addr src =
  note_span t ~addr ~len:(Bytes.length src);
  Bytes.blit src 0 t.data addr (Bytes.length src)

let blit_words t ~addr words =
  List.iteri (fun i w -> write_word t (addr + (2 * i)) w) words

let fill t ~addr ~len ~value =
  note_span t ~addr ~len;
  Bytes.fill t.data addr len (Char.chr (value land 0xFF))

let copy t =
  {
    data = Bytes.copy t.data;
    state =
      Bytes.map
        (fun c -> Char.unsafe_chr (Char.code c land written_bit))
        t.state;
    written = Bytes.copy t.written;
    nwritten = t.nwritten;
    base = t.base;
    code_gen = 0;
    dirty = [];
  }

let equal a b = Bytes.equal a.data b.data

(* ------------------------------------------------------------------ *)
(* Snapshot and restore                                                *)

(* The [i]th page written since the last snapshot or restore. *)
let written_page t i = Char.code (Bytes.unsafe_get t.written i)

let clear_written t =
  for i = 0 to t.nwritten - 1 do
    let p = written_page t i in
    let s = Char.code (Bytes.unsafe_get t.state p) in
    Bytes.unsafe_set t.state p (Char.unsafe_chr (s land lnot written_bit))
  done;
  t.nwritten <- 0

let snapshot t =
  let s = Array.copy t.base in
  for i = 0 to t.nwritten - 1 do
    let p = written_page t i in
    s.(p) <- Bytes.sub_string t.data (p lsl 8) 256
  done;
  clear_written t;
  t.base <- s;
  s

let restore t s =
  if s != t.base then invalid_arg "Memory.restore: not the latest snapshot";
  for i = 0 to t.nwritten - 1 do
    let p = written_page t i in
    if Char.code (Bytes.unsafe_get t.state p) land watched_bit <> 0 then
      dirty t (p lsl 8) 256;
    match s.(p) with
    | "" -> Bytes.fill t.data (p lsl 8) 256 '\000'
    | b -> Bytes.blit_string b 0 t.data (p lsl 8) 256
  done;
  clear_written t

(* Do the bytes of [\[lo, hi)] inside written page [p] equal the
   latest snapshot's? *)
let page_unchanged t p ~lo ~hi =
  let off = p lsl 8 and b = t.base.(p) in
  let rec go a =
    a >= min hi (off + 256)
    || Bytes.unsafe_get t.data a
       = (if b = "" then '\000' else String.unsafe_get b (a - off))
       && go (a + 1)
  in
  go (max lo off)

let unchanged t ~lo ~hi =
  let rec go i =
    i >= t.nwritten
    || (page_unchanged t (written_page t i) ~lo ~hi && go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Code-write tracking                                                 *)

let code_gen t = t.code_gen

let watch_code_span t ~lo ~hi =
  if hi > lo then
    for p = lo lsr 8 to min ((hi - 1) lsr 8) (pages - 1) do
      let s = Char.code (Bytes.unsafe_get t.state p) in
      Bytes.unsafe_set t.state p (Char.unsafe_chr (s lor watched_bit))
    done

let take_dirty_code t =
  let d = t.dirty in
  t.dirty <- [];
  d

let clear_code_watches t =
  for p = 0 to pages - 1 do
    let s = Char.code (Bytes.unsafe_get t.state p) in
    Bytes.unsafe_set t.state p (Char.unsafe_chr (s land lnot watched_bit))
  done;
  t.dirty <- []
