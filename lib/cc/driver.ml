type compiled = {
  prefix : string;
  mode : Isolation.mode;
  code : Amulet_link.Asm.item list;
  data : Amulet_link.Asm.item list;
  infos : Codegen.fn_info list;
  handlers : string list;
  api_gates : string list;
  stack_bytes : int;
  recursive : bool;
  loops : (string * int) list;
}

let default_stack_bytes = 512

let compile ~prefix ~mode ?(shadow = false) ?analyze ?loop_bounds source =
  let ast = Parser.parse source in
  Feature_check.check ~mode ast;
  let externals = Runtime.builtin_externals @ Apis.signatures in
  let tast = Typecheck.check ~externals ast in
  (* the range analysis runs between type checking and code generation
     and may itself reject proven-out-of-bounds accesses *)
  let classify = Option.map (fun f -> f tast) analyze in
  let loop_bound = Option.map (fun f -> f tast) loop_bounds in
  let out = Codegen.gen_program ~prefix ~mode ~shadow ?classify ?loop_bound tast in
  let roots =
    let mains =
      List.filter_map
        (fun fi ->
          if fi.Codegen.fi_name = "main" then Some fi.Codegen.fi_name
          else None)
        out.Codegen.infos
    in
    out.Codegen.handlers @ mains
  in
  let recursive =
    List.exists
      (fun root ->
        match Stack_depth.analyze out.Codegen.infos ~root with
        | Stack_depth.Recursive _ -> true
        | Stack_depth.Finite _ -> false)
      roots
  in
  let stack_bytes =
    max 64
      (Stack_depth.worst_case out.Codegen.infos ~roots
         ~default:default_stack_bytes)
  in
  let api_gates =
    List.sort_uniq compare
      (List.concat_map (fun fi -> fi.Codegen.fi_api_calls) out.Codegen.infos)
  in
  {
    prefix;
    mode;
    code = out.Codegen.code;
    data = out.Codegen.data;
    infos = out.Codegen.infos;
    handlers = out.Codegen.handlers;
    api_gates;
    stack_bytes;
    recursive;
    loops = out.Codegen.loops;
  }
