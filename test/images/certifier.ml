(* One line per certified image: the 288 builds of
   Test_support.Image_builds, then every cell of the campaign's
   per-mode attack bases (the binary cells' patched copies of the
   carrier firmware included).  [Lint.run] certifies every app of the
   image; a line gives its error and warning counts, each handler's
   WCET verdict, an MD5 of the rendered diagnostics and an MD5 of the
   reconstructed CFGs with every function's WCET verdict.  `dune
   runtest` diffs the output against certifier.expected, so a change
   to any verdict, bound or violation text shows up as a changed
   line. *)

module Aft = Amulet_aft.Aft
module Iso = Amulet_cc.Isolation
module Lint = Amulet_analysis.Lint
module Cfi = Amulet_analysis.Cfi
module Wcet = Amulet_analysis.Wcet
module Attacks = Amulet_sec.Attacks

let md5 s = Digest.to_hex (Digest.string s)

(* [Lint.run] is [run_with] on the mode's proofs, which depend on the
   mode alone: prove them once per mode. *)
let proofs = List.map (fun m -> (m, Lint.proof_diags m)) Iso.all

let verdict = function
  | Wcet.Bounded c -> string_of_int c
  | Wcet.Unbounded _ -> "unbounded"

let certify (fw : Aft.firmware) mode =
  let image = fw.Aft.fw_image in
  let r =
    Lint.run_with ~proofs:(List.assoc mode proofs) ~image ~mode
      ~apps:(Lint.apps_of image)
  in
  let diags =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Lint.pp_diag) r.Lint.l_diags)
  in
  let handlers =
    List.concat_map
      (fun (a : Lint.app_report) ->
        match a.Lint.r_wcet with
        | None -> [ a.Lint.r_app ^ "=no-cfg" ]
        | Some w ->
          List.map
            (fun (h : Wcet.handler_bound) ->
              Printf.sprintf "%s.%s=%s" a.Lint.r_app h.Wcet.hb_handler
                (verdict h.Wcet.hb_total))
            w.Wcet.w_handlers)
      r.Lint.l_apps
  in
  let cfgs =
    List.map
      (fun (a : Lint.app_report) ->
        match (a.Lint.r_cfi, a.Lint.r_wcet) with
        | Ok cfg, Some w ->
          Format.asprintf "%a%s" Cfi.pp_cfg cfg
            (String.concat ""
               (List.map
                  (fun (f : Wcet.func_bound) ->
                    Format.asprintf "%s %a loops=%d/%d\n" f.Wcet.fb_name
                      Wcet.pp_verdict f.Wcet.fb_verdict f.Wcet.fb_bounded_loops
                      f.Wcet.fb_loops)
                  w.Wcet.w_funcs))
        | _ -> "no-cfg\n")
      r.Lint.l_apps
  in
  Printf.sprintf "errors=%d warnings=%d %s diags=%s cfg=%s" r.Lint.l_errors
    r.Lint.l_warnings
    (String.concat " " handlers)
    (md5 diags)
    (md5 (String.concat "" cfgs))

let () =
  Test_support.Image_builds.iter (fun label mode variant fw ->
      Printf.printf "%-22s %-15s %-8s %s\n" label (Iso.name mode) variant
        (certify fw mode));
  Test_support.Image_builds.iter_cells (fun mode (atk : Attacks.t) built ->
      Printf.printf "%-22s %-15s %-8s %s\n" atk.Attacks.atk_name
        (Iso.name mode) "cell"
        (match built with
        | Attacks.Rejected msg -> "rejected: " ^ msg
        | Attacks.Built { fw; _ } -> certify fw mode))
