module I = Amulet_link.Image
module Iso = Amulet_cc.Isolation

type span_kind = Function | Exit_stub | Fault_stub

type t = {
  prefix : string;
  code_lo : int;
  code_hi : int;
  data_lo : int;
  data_hi : int;
  stack_top : int option;
  bounds_check : int option;
  spans : (int * string * span_kind) list;
  externals : (int, string) Hashtbl.t;
  fetch : int -> int;
}

(* Function symbols are [<prefix>$name]; compiler-internal labels use a
   "$$" separator and never start a span. *)
let span_kind ~prefix name =
  let pl = String.length prefix in
  let fault = (if prefix = "" then "os" else prefix) ^ "$$fault" in
  if
    String.length name > pl + 1
    && String.starts_with ~prefix name
    && name.[pl] = '$'
    && not (String.contains_from name (pl + 1) '$')
  then Some Function
  else if name = prefix ^ "$$exit" || name = "__exit_" ^ prefix then
    Some Exit_stub
  else if String.starts_with ~prefix:fault name then Some Fault_stub
  else None

let make image ~prefix =
  let opt name = Hashtbl.find_opt image.I.table name in
  let sym name =
    match opt name with
    | Some a -> a
    | None ->
      invalid_arg
        (Printf.sprintf "Section.make: image has no symbol %s (prefix %S)"
           name prefix)
  in
  let code_lo = sym (Iso.code_lo_sym ~prefix) in
  let code_hi = sym (Iso.code_hi_sym ~prefix) in
  {
    prefix;
    code_lo;
    code_hi;
    data_lo = sym (Iso.data_lo_sym ~prefix);
    data_hi = sym (Iso.data_hi_sym ~prefix);
    stack_top =
      Option.map (fun a -> a land lnot 1) (opt (Iso.stack_top_sym ~prefix));
    bounds_check = opt "__bounds_check";
    spans =
      List.filter_map
        (fun (name, a) ->
          if a < code_lo || a >= code_hi then None
          else Option.map (fun k -> (a, name, k)) (span_kind ~prefix name))
        image.I.symbols
      |> List.sort compare;
    externals = Amulet_cc.Apis.externals image.I.symbols;
    fetch = I.make_fetch image;
  }
