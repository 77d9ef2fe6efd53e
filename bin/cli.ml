(* The front end every [amulet] subcommand shares: how a positional
   argument names an app, the common options, the one exception guard
   and the one exit policy.  A subcommand builds a term that evaluates
   to a thunk returning its exit status and registers it with {!cmd},
   which runs the thunk under {!guard}. *)

open Cmdliner
module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Apps = Amulet_apps.Suite

(* ------------------------------------------------------------------ *)
(* Exit policy *)

let check_failed = 1
let bad_input = 2

let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info check_failed
       ~doc:
         "when a check the command performs fails: a lint or WCET error, an \
          isolation-oracle violation, an unrecovered app fault or an \
          undischarged proof obligation."
  :: Cmd.Exit.info bad_input
       ~doc:"when an input is unreadable, unparsable or unbuildable."
  :: List.filter
       (fun i -> Cmd.Exit.info_code i >= Cmd.Exit.cli_error)
       Cmd.Exit.defaults

let status ok = if ok then 0 else check_failed

exception Bad_input of string

let bad_inputf fmt = Format.kasprintf (fun s -> raise (Bad_input s)) fmt

let guard run =
  let fail fmt =
    Format.kfprintf (fun _ -> bad_input) Format.err_formatter fmt
  in
  try run () with
  | Aft.Build_error msg -> fail "build error: %s@." msg
  | Amulet_obs.Json.Parse_error msg -> fail "malformed input: %s@." msg
  | Sys_error msg | Bad_input msg -> fail "%s@." msg

let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc ~exits) (Term.map guard term)

let group name ~doc cmds = Cmd.group (Cmd.info name ~doc ~exits) cmds

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* [with_input path f] runs [f] over [path]; a JSON parse error inside
   is reported against [path]. *)
let with_input path f =
  In_channel.with_open_bin path (fun ic ->
      try f ic
      with Amulet_obs.Json.Parse_error msg ->
        raise (Amulet_obs.Json.Parse_error (path ^ ": " ^ msg)))

let read_file path = with_input path In_channel.input_all

(* A source path names its app after its base name, lower-cased, with
   every character outside [a-z0-9] mapped to '_'. *)
let app_name_of_path path =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | _ -> '_')
    (Filename.remove_extension (Filename.basename path))

let find_app name =
  List.find_opt (fun (a : Apps.app) -> a.Apps.name = name) Apps.all

let suite_app name =
  match find_app name with
  | Some app -> app
  | None ->
    bad_inputf "unknown app %s; known: %s" name
      (String.concat ", "
         (List.map (fun (a : Apps.app) -> a.Apps.name) Apps.all))

(* A suite app name, or else a WearC source path. *)
let spec ~mode arg =
  match find_app arg with
  | Some app -> Apps.spec_for mode app
  | None -> { Aft.name = app_name_of_path arg; source = read_file arg }

(* A source error names the argument its app came from. *)
let build ?shadow ?elide ~mode args =
  let specs = List.map (spec ~mode) args in
  try Aft.build ~mode ?shadow ?elide specs
  with Aft.Source_error { app; loc; msg } ->
    let arg =
      List.assoc app
        (List.map2 (fun (s : Aft.app_spec) arg -> (s.Aft.name, arg)) specs args)
    in
    bad_inputf "%s: error at %a: %s" arg Amulet_cc.Srcloc.pp loc msg

(* ------------------------------------------------------------------ *)
(* Common options *)

let mode_conv =
  let parse s =
    match Iso.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "expected one of: none, amuletc, software, mpu")
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Iso.name m))

let mode =
  Arg.(
    value
    & opt mode_conv Iso.Mpu_assisted
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Isolation mode: $(b,none), $(b,amuletc) (feature-limited), \
           $(b,software), or $(b,mpu).")

(* The repeatable form; no -m at all means [default].  A mode given
   twice counts once, in the order of its first occurrence. *)
let modes ~default =
  let doc =
    Printf.sprintf "Isolation mode (repeatable; default %s)."
      (if default = Iso.all then "all four"
       else String.concat ", " (List.map Iso.name default))
  in
  let given =
    Arg.(value & opt_all mode_conv [] & info [ "m"; "mode" ] ~docv:"MODE" ~doc)
  in
  let distinct ms =
    List.fold_left (fun acc m -> if List.mem m acc then acc else m :: acc) [] ms
    |> List.rev
  in
  Term.(const (function [] -> default | ms -> distinct ms) $ given)

let apps =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"APP"
        ~doc:
          "Suite app name (e.g. $(b,pedometer)) or path to a WearC source \
           file; a path names its app after its base name, lower-cased, \
           with other characters mapped to $(b,_).")

let no_elide =
  Arg.(
    value & flag
    & info [ "no-elide" ]
        ~doc:"Compile with every guard emitted (skip the range analysis).")

let shadow =
  Arg.(
    value & flag
    & info [ "shadow" ] ~doc:"Arm the InfoMem shadow return-address stack.")

let format ?(doc = "Output format: $(b,human) or $(b,json).") () =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FMT" ~doc)

(* A worker-domain count: 0 means [Fleet.Sched.default_jobs]. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg "expected a non-negative integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(
    value
    & opt jobs_conv 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains; 0 means Fleet.Sched.default_jobs, the shared \
           jobs policy.")
