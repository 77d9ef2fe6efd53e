(* Reference for [Amulet_cc.Apis.footprint] and [Apis.externals]: a
   direct scan that compares every symbol with each runtime helper name
   in turn.  The library answers from a table of the helper names; the
   two must give the same footprints and the same address -> name
   table. *)

let gate_prefix = "__gate_"
let osreturn_label = "__osreturn"
let gate_footprint = 18

let footprint name =
  if String.starts_with ~prefix:gate_prefix name then Some gate_footprint
  else List.assoc_opt name Amulet_cc.Runtime.helpers

let externals symbols =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, addr) ->
      if footprint name <> None || name = osreturn_label then
        Hashtbl.replace tbl addr name)
    symbols;
  tbl
