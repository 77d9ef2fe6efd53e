(* amulet lint: build a firmware from WearC sources (or suite app
   names) and run the whole-image static certifier — SFI verifier, CFI
   reconstruction, binary stack bound, gate-argument provenance — over
   every app section.  Human or JSON diagnostics; exit status 1 when
   any error-severity diagnostic is emitted. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Lint = Amulet_analysis.Lint
module J = Amulet_obs.Json

let json_of_diag (d : Lint.diag) =
  J.Obj
    ([ ("app", J.Str d.Lint.d_app); ("pass", J.Str d.Lint.d_pass);
       ("severity", J.Str (Lint.severity_name d.Lint.d_severity)) ]
    @ (match d.Lint.d_addr with
      | Some a -> [ ("addr", J.Int a) ]
      | None -> [])
    @ [ ("message", J.Str d.Lint.d_message) ])

let json_of_report (r : Lint.report) =
  J.Obj
    [
      ("mode", J.Str (Iso.name r.Lint.l_mode));
      ("apps", J.Arr (List.map (fun (a : Lint.app_report) ->
           J.Obj
             [
               ("name", J.Str a.Lint.r_app);
               ("certified_gates",
                J.Arr (List.map (fun s -> J.Str s) a.Lint.r_certified));
             ])
           r.Lint.l_apps));
      ("errors", J.Int r.Lint.l_errors);
      ("warnings", J.Int r.Lint.l_warnings);
      ("diagnostics", J.Arr (List.map json_of_diag r.Lint.l_diags));
    ]

let print_human (r : Lint.report) =
  Format.printf "isolation mode: %s@." (Iso.name r.Lint.l_mode);
  List.iter (fun d -> Format.printf "%a@." Lint.pp_diag d) r.Lint.l_diags;
  Format.printf "%d error(s), %d warning(s), %d app(s)@." r.Lint.l_errors
    r.Lint.l_warnings
    (List.length r.Lint.l_apps)

let run mode no_elide shadow format notes apps () =
  let fw = Cli.build ~mode ~shadow ~elide:(not no_elide) apps in
  let image = fw.Aft.fw_image in
  let report = Lint.run ~image ~mode ~apps:(Lint.apps_of image) in
  (match format with
  | `Human ->
    print_human report;
    if notes then
      List.iter
        (fun (k, v) -> Format.printf "%s = %s@." k v)
        image.Amulet_link.Image.notes
  | `Json -> print_string (J.to_string (json_of_report report) ^ "\n"));
  Cli.status (report.Lint.l_errors = 0)

open Cmdliner

let notes =
  Arg.(
    value & flag
    & info [ "notes" ]
        ~doc:"Also print the certification notes stamped into the image.")

let cmd =
  Cli.cmd "lint"
    ~doc:"statically certify a firmware image (SFI, CFI, stack bounds, gates)"
    Term.(
      const run $ Cli.mode $ Cli.no_elide $ Cli.shadow $ Cli.format ()
      $ notes $ Cli.apps)
