type line = { addr : int; words : int list; text : string }

let name_at symbols addr =
  List.fold_left
    (fun acc (name, a) ->
      if a = addr && String.length name > 0 && name.[0] <> '_' then Some name
      else
        match acc with
        | Some _ -> acc
        | None -> if a = addr then Some name else None)
    None symbols

let annotate symbols instr ~addr =
  let target =
    match instr with
    | Opcode.Fmt2 (Opcode.CALL, _, Opcode.S_immediate t) -> Some t
    | _ -> (
      match Opcode.jump_target instr ~pc:addr with
      | None -> Opcode.br_target instr
      | t -> t)
  in
  match target with
  | None -> ""
  | Some t -> (
    match name_at symbols t with
    | Some n -> Printf.sprintf " ; -> %s" n
    | None -> Printf.sprintf " ; -> %04X" (t land 0xFFFF))

let range ?(symbols = []) ~fetch ~lo ~hi () =
  let lines = ref [] in
  let addr = ref (lo land lnot 1) in
  while !addr < hi do
    let a = !addr in
    (match name_at symbols a with
    | Some n -> lines := { addr = a; words = []; text = n ^ ":" } :: !lines
    | None -> ());
    (match Decode.decode ~fetch ~addr:a with
    | instr, len when a + len <= hi ->
      let words = List.init (len / 2) (fun i -> fetch (a + (2 * i))) in
      let text =
        Printf.sprintf "        %s%s" (Opcode.to_string instr)
          (annotate symbols instr ~addr:a)
      in
      lines := { addr = a; words; text } :: !lines;
      addr := a + len
    | _, _ ->
      let w = fetch a in
      lines :=
        { addr = a; words = [ w ]; text = Printf.sprintf "        .word 0x%04X" w }
        :: !lines;
      addr := a + 2
    | exception Decode.Illegal w ->
      lines :=
        { addr = a; words = [ w ]; text = Printf.sprintf "        .word 0x%04X" w }
        :: !lines;
      addr := a + 2)
  done;
  List.rev !lines

let pp_line ppf l =
  if l.words = [] then Format.fprintf ppf "%s" l.text
  else
    Format.fprintf ppf "%04X: %-14s %s" l.addr
      (String.concat " " (List.map (Printf.sprintf "%04X") l.words))
      l.text

let pp_listing ppf lines =
  List.iter (fun l -> Format.fprintf ppf "%a@." pp_line l) lines
