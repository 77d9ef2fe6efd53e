(* Whole-image static certifier.

   Runs every analysis this library offers — the SFI verifier, CFI
   reconstruction, the binary stack bound, gate-argument provenance
   and the WCET bound — over each app code section of a linked
   firmware image, adds the mode's proof obligations ([lib/proof]),
   and folds the outcomes into one diagnostic report (rendered
   human-readable or as JSON by [amulet lint]).  The obligations
   depend on the mode alone: [run_with] takes them precomputed, so a
   caller linting many images of one mode proves them once.

   [r_certified] lists the services whose dynamic gate-pointer
   validation the kernel may elide for an app: that elision is sound
   only when the code the analyses looked at is the code that runs, so
   it additionally requires the CFI proof and a mode that keeps app
   code immutable (everything except No_isolation, where an unchecked
   wild store could rewrite the certified instructions).
   [certified_gates] computes that one field for the AFT from only the
   analyses it rests on: CFI, then the stack bound, then gate
   provenance. *)

module I = Amulet_link.Image
module Iso = Amulet_cc.Isolation
module Ob = Amulet_proof.Obligations
module Engine = Amulet_proof.Engine

type severity = Note | Warn | Error

type diag = {
  d_app : string;  (** "" for image-level diagnostics *)
  d_pass : string;
      (** "image" | "sfi" | "cfi" | "stackcert" | "gates" | "wcet"
          | "proof" *)
  d_severity : severity;
  d_addr : int option;
  d_message : string;
}

type app_report = {
  r_app : string;
  r_sfi : (Verifier.stats, Verifier.violation list) result;
  r_cfi : (Cfi.t, Cfi.violation list) result;
  r_stack : Stackcert.verdict option;  (** None when CFI failed *)
  r_gates : Gate_taint.t option;
  r_certified : string list;  (** services safe to elide (see above) *)
  r_wcet : Wcet.t option;  (** None when CFI failed *)
}

type report = {
  l_mode : Iso.mode;
  l_apps : app_report list;
  l_diags : diag list;
  l_errors : int;
  l_warnings : int;
}

let code_start_suffix = "_code__start"

(* App prefixes present in the image, in address order, discovered
   from the linker's section-bound symbols. *)
let apps_of (image : I.t) =
  List.filter_map
    (fun (name, addr) ->
      let n = String.length name and sn = String.length code_start_suffix in
      if n > sn && String.sub name (n - sn) sn = code_start_suffix then
        let prefix = String.sub name 0 (n - sn) in
        if prefix = "os" then None else Some (addr, prefix)
      else None)
    image.I.symbols
  |> List.sort compare |> List.map snd

let severity_name = function Note -> "note" | Warn -> "warning" | Error -> "error"

(* The chain gate certification rests on: the stack bound over the
   certified CFG, then gate-argument provenance under that bound. *)
let stack_and_gates cfg =
  let st = Stackcert.analyze ~cfg in
  (st.Stackcert.sc_verdict, Gate_taint.analyze ~cfg ~stack:st)

(* Eliding gate validation is sound only where app code is immutable. *)
let elision_sound mode = mode <> Iso.No_isolation

let lint_app ~image ~mode prefix =
  let sec = Section.make image ~prefix in
  let sfi = Verifier.verify sec ~mode in
  let cfi = Cfi.of_section sec ~mode in
  let stack, gates =
    match cfi with
    | Error _ -> (None, None)
    | Ok cfg ->
      let v, gt = stack_and_gates cfg in
      (Some v, Some gt)
  in
  let wcet =
    match cfi with
    | Error _ -> None
    | Ok cfg -> Some (Wcet.analyze ~image ~cfg)
  in
  let certified =
    match gates with
    | Some gt when elision_sound mode -> gt.Gate_taint.gt_certified
    | _ -> []
  in
  let diags = ref [] in
  let diag ?addr pass severity message =
    diags :=
      { d_app = prefix; d_pass = pass; d_severity = severity; d_addr = addr;
        d_message = message }
      :: !diags
  in
  (match sfi with
  | Ok st ->
    diag "sfi" Note
      (Format.asprintf "verified: %a" Verifier.pp_stats st)
  | Error vs ->
    List.iter
      (fun (v : Verifier.violation) ->
        diag ~addr:v.Verifier.vaddr "sfi" Error
          (Printf.sprintf "%s: %s" v.Verifier.vtext v.Verifier.vreason))
      vs);
  (match cfi with
  | Ok cfg ->
    diag "cfi" Note
      (Printf.sprintf "control flow certified: %d functions, %d instructions"
         (List.length (Cfi.functions cfg))
         cfg.Cfi.cf_insns)
  | Error vs ->
    List.iter
      (fun (v : Cfi.violation) ->
        diag ~addr:v.Cfi.cv_addr "cfi" Error
          (Printf.sprintf "%s: %s" v.Cfi.cv_text v.Cfi.cv_reason))
      vs);
  (match stack with
  | None -> ()
  | Some v ->
    let text = Format.asprintf "%a" Stackcert.pp_verdict v in
    let sev =
      match v with
      | Stackcert.Certified _ | Stackcert.Not_applicable -> Note
      | Stackcert.Unbounded { fenced = true; _ } -> Warn
      | Stackcert.Unbounded { fenced = false; _ }
      | Stackcert.Rejected _ -> Error
      | Stackcert.Unanalyzable { addr = _; _ } -> Error
    in
    let addr = match v with Stackcert.Unanalyzable { addr; _ } -> Some addr | _ -> None in
    diag ?addr "stackcert" sev ("stack " ^ text));
  (match gates with
  | None -> ()
  | Some gt ->
    List.iter
      (fun (s : Gate_taint.site) ->
        if not s.Gate_taint.gs_certified then
          diag ~addr:s.Gate_taint.gs_addr "gates" Note
            (Printf.sprintf "%s in %s keeps its dynamic check: %s"
               s.Gate_taint.gs_service s.Gate_taint.gs_fn
               s.Gate_taint.gs_reason))
      gt.Gate_taint.gt_sites;
    if certified <> [] then
      diag "gates" Note
        ("validation elidable for: " ^ String.concat ", " certified));
  (match wcet with
  | None -> ()
  | Some w ->
    (* a handler the bound analysis cannot certify is a warning, not
       an error: an unbounded handler is a quality-of-service problem,
       while the isolation guarantees above do not depend on it *)
    List.iter
      (fun (h : Wcet.handler_bound) ->
        match h.Wcet.hb_total with
        | Wcet.Bounded c ->
          diag "wcet" Note
            (Printf.sprintf "%s worst case %d cycles per dispatch"
               h.Wcet.hb_handler c)
        | Wcet.Unbounded _ ->
          diag "wcet" Warn
            (Format.asprintf "%s %a" h.Wcet.hb_handler Wcet.pp_verdict
               h.Wcet.hb_total))
      w.Wcet.w_handlers;
    if w.Wcet.w_loops > 0 then
      diag "wcet" Note
        (Printf.sprintf "%d of %d loops carry a static iteration bound"
           w.Wcet.w_bounded_loops w.Wcet.w_loops));
  ( { r_app = prefix; r_sfi = sfi; r_cfi = cfi; r_stack = stack;
      r_gates = gates; r_certified = certified; r_wcet = wcet },
    List.rev !diags )

(* The mode-level write-containment obligations ([lib/proof]): each is
   expected to prove by k-induction or refute with a replayable
   counterexample; any obligation off its documented expectation is a
   certification error.  Image-independent, so reported at image
   level. *)
let proof_diags mode =
  List.map
    (fun (r : Ob.result) ->
      let status =
        match r.Ob.res_verdict with
        | Engine.Proved { k; reachable; strengthened } ->
          Printf.sprintf "proved by %d-induction over %d reachable states%s" k
            reachable
            (if strengthened then " (window-integrity strengthened)" else "")
        | Engine.Refuted { trace; _ } ->
          Printf.sprintf "refuted by a %d-step counterexample%s"
            (List.length trace)
            (if r.Ob.res_ok then ", as documented" else "")
        | Engine.Unknown { k_max; reason } ->
          Printf.sprintf "undecided at k_max=%d: %s" k_max reason
      in
      { d_app = ""; d_pass = "proof";
        d_severity = (if r.Ob.res_ok then Note else Error); d_addr = None;
        d_message = r.Ob.res_ob.Ob.ob_name ^ " " ^ status })
    (Ob.run_mode mode)

let run_with ~proofs ~(image : I.t) ~mode ~apps =
  let per_app = List.map (lint_app ~image ~mode) apps in
  let diags =
    if apps = [] then
      [ { d_app = ""; d_pass = "image"; d_severity = Error; d_addr = None;
          d_message = "image has no app code sections: nothing was certified" } ]
    else List.concat_map snd per_app @ proofs
  in
  let count s = List.length (List.filter (fun d -> d.d_severity = s) diags) in
  {
    l_mode = mode;
    l_apps = List.map fst per_app;
    l_diags = diags;
    l_errors = count Error;
    l_warnings = count Warn;
  }

let run ~image ~mode ~apps =
  run_with ~proofs:(proof_diags mode) ~image ~mode ~apps

(* Services whose gate-pointer validation the kernel may skip for
   [prefix] — empty whenever any piece of the static evidence is
   missing.  Equal to [lint_app]'s [r_certified], without the SFI
   verdict, the WCET bound or any diagnostic. *)
let certified_gates ~image ~mode ~prefix =
  if not (elision_sound mode) then []
  else
    match Cfi.reconstruct ~image ~mode ~prefix with
    | Error _ -> []
    | Ok cfg -> (snd (stack_and_gates cfg)).Gate_taint.gt_certified

let pp_diag ppf d =
  Format.fprintf ppf "%s%s: [%s/%s] %s"
    (match d.d_addr with Some a -> Printf.sprintf "%04X " a | None -> "")
    (severity_name d.d_severity)
    (if d.d_app = "" then "image" else d.d_app)
    d.d_pass d.d_message
