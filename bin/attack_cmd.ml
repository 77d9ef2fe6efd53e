(* amulet attack: run the adversarial attack & fault-injection
   campaign — every corpus attack under every isolation mode, each
   cell checked against its documented expectation by the isolation
   oracle.  The check fails on any expectation mismatch, oracle
   violation, static-lint surprise or non-reproducible injection. *)

module Iso = Amulet_cc.Isolation
module Sec = Amulet_sec

let print_corpus () =
  List.iter
    (fun (a : Sec.Attacks.t) ->
      Format.printf "%-24s %-6s %s@." a.Sec.Attacks.atk_name
        (match a.Sec.Attacks.atk_level with
        | Sec.Attacks.Source -> "source"
        | Sec.Attacks.Binary -> "binary")
        a.Sec.Attacks.atk_descr)
    Sec.Attacks.corpus;
  0

(* A selection that names no attack, or none of the --quick subset,
   would pass vacuously with zero cells. *)
let check_selection ~quick only =
  let corpus = List.map (fun a -> a.Sec.Attacks.atk_name) Sec.Attacks.corpus in
  (match List.find_opt (fun n -> not (List.mem n corpus)) only with
  | Some n ->
    Cli.bad_inputf "unknown attack %s; the corpus (see --list): %s" n
      (String.concat ", " corpus)
  | None -> ());
  if quick && only <> []
     && not (List.exists (fun n -> List.mem n Sec.Campaign.quick_names) only)
  then
    Cli.bad_inputf "--only %s leaves zero cells: the --quick subset is %s"
      (String.concat ", " only)
      (String.concat ", " Sec.Campaign.quick_names)

let campaign quick seed jobs out only modes =
  check_selection ~quick only;
  let summary = Sec.Campaign.run ~quick ~jobs ~only ~modes ~seed () in
  Format.printf "%a" Sec.Campaign.pp_matrix summary;
  (match out with
  | Some path ->
    let oc = open_out path in
    Sec.Campaign.emit_jsonl summary oc;
    Format.printf "campaign records written to %s@." path
  | None -> ());
  Cli.status (Sec.Campaign.ok summary)

let run quick seed jobs out only modes list () =
  if list then print_corpus () else campaign quick seed jobs out only modes

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI smoke subset: one attack per defence class, no injection \
           rows.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Campaign seed (fault-injection schedules, sensor streams).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write one JSONL campaign record per cell to $(docv).")

let only =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"ATTACK"
        ~doc:"Restrict to the named attack (repeatable).")

let list =
  Arg.(value & flag & info [ "list" ] ~doc:"List the attack corpus and exit.")

let cmd =
  Cli.cmd "attack" ~doc:"adversarial attack & fault-injection campaign"
    Term.(
      const run $ quick $ seed $ Cli.jobs $ out $ only
      $ Cli.modes ~default:Iso.all $ list)
