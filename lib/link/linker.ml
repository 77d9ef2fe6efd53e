exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type placed_section = { name : string; base : int; layout : Assembler.layout }

let section_end s = s.base + Assembler.size s.layout

let check_no_overlap sections =
  let ranges =
    List.map (fun s -> (s.name, s.base, section_end s)) sections
    |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
  in
  let rec check = function
    | (n1, _, e1) :: ((n2, b2, _) :: _ as rest) ->
      if e1 > b2 then errf "sections %s and %s overlap" n1 n2;
      check rest
    | _ -> ()
  in
  check ranges

let build_symbols ~extra_symbols sections =
  let table = Hashtbl.create 256 in
  let define name addr =
    if Hashtbl.mem table name then errf "duplicate symbol %s" name;
    Hashtbl.add table name addr
  in
  List.iter (fun (name, addr) -> define name addr) extra_symbols;
  List.iter
    (fun s ->
      define (s.name ^ "__start") s.base;
      define (s.name ^ "__end") (section_end s);
      List.iter
        (fun (l, off) -> define l (s.base + off))
        (Assembler.labels s.layout))
    sections;
  table

let link ?(extra_symbols = []) ~entry sections =
  check_no_overlap sections;
  let table = build_symbols ~extra_symbols sections in
  let resolve name =
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None -> errf "undefined symbol %s" name
  in
  let chunks =
    List.filter_map
      (fun s ->
        try
          let data = Assembler.emit ~base:s.base ~resolve s.layout in
          if Bytes.length data = 0 then None else Some (s.base, data)
        with Assembler.Error e -> errf "section %s: %s" s.name e)
      sections
  in
  Image.make ~chunks ~table ~entry:(resolve entry)
