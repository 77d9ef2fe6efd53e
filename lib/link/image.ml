type t = {
  chunks : (int * Bytes.t) list;
  symbols : (string * int) list;
  table : (string, int) Hashtbl.t;
  entry : int;
  notes : (string * string) list;
      (* free-form certification metadata attached after linking,
         e.g. "cert.gates.<app>" -> comma-separated service names *)
}

(* No address lies in two chunks; empty chunks hold none. *)
let check_disjoint what chunks =
  let rec go = function
    | (b1, d1) :: ((b2, _) :: _ as rest) ->
      if b1 + Bytes.length d1 > b2 then
        invalid_arg
          (Printf.sprintf "Image.%s: chunks at 0x%04X and 0x%04X overlap" what
             b1 b2);
      go rest
    | _ -> ()
  in
  go
    (List.filter (fun (_, d) -> Bytes.length d > 0) chunks
    |> List.sort (fun (a, _) (b, _) -> compare a b))

let make ~chunks ~table ~entry =
  check_disjoint "make" chunks;
  let symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  { chunks; symbols; table; entry; notes = [] }

let symbol t name = Hashtbl.find t.table name
let note t key = List.assoc_opt key t.notes
let with_notes t notes = { t with notes }
let with_chunks t chunks =
  check_disjoint "with_chunks" chunks;
  { t with chunks }
let has_symbol t name = Hashtbl.mem t.table name

let chunk_containing t addr =
  List.find_opt
    (fun (base, b) -> addr >= base && addr < base + Bytes.length b)
    t.chunks

let span t name =
  match Hashtbl.find_opt t.table name with
  | None -> None
  | Some addr -> (
    match chunk_containing t addr with
    | None -> Some (addr, addr)
    | Some (base, b) ->
      let chunk_end = base + Bytes.length b in
      let next =
        List.fold_left
          (fun acc (_, a) -> if a > addr && a < acc then a else acc)
          chunk_end t.symbols
      in
      Some (addr, next))

let nearest_symbol t addr =
  List.fold_left
    (fun acc (name, a) ->
      if a > addr then acc
      else
        match acc with
        | Some (_, best) when best >= a -> acc
        | _ ->
          (* prefer start-of-range names over end markers at equal addr *)
          if String.length name > 5
             && String.sub name (String.length name - 5) 5 = "__end"
          then acc
          else Some (name, a))
    None t.symbols

(* Reads cluster in one chunk, so the closure keeps the chunk of its
   last read and walks the list only when a read falls outside it.
   The chunks are disjoint, so a word inside the kept chunk is in no
   other. *)
let make_fetch t =
  let last = ref (0, Bytes.empty) in
  fun a ->
    let base, bytes = !last in
    let off = a - base in
    if off >= 0 && off + 1 < Bytes.length bytes then
      Bytes.get_uint16_le bytes off
    else
      match
        List.find_opt
          (fun (b0, b) -> a >= b0 && a + 1 < b0 + Bytes.length b)
          t.chunks
      with
      | None -> 0
      | Some ((b0, b) as chunk) ->
        last := chunk;
        Bytes.get_uint16_le b (a - b0)

let load t machine =
  List.iter
    (fun (addr, data) -> Amulet_mcu.Machine.load_bytes machine ~addr data)
    t.chunks;
  Amulet_mcu.Machine.set_reset_vector machine t.entry

let total_bytes t =
  List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 t.chunks

let pp_symbols ppf t =
  List.iter
    (fun (name, addr) -> Format.fprintf ppf "%04X %s@." addr name)
    (List.sort (fun (_, a) (_, b) -> compare a b) t.symbols)
