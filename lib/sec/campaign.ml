module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module Mpu = Amulet_mcu.Mpu
module Map = Amulet_mcu.Memory_map
module Trace = Amulet_mcu.Trace
module Word = Amulet_mcu.Word
module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Layout = Amulet_aft.Layout
module Image = Amulet_link.Image
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module Lint = Amulet_analysis.Lint
module Verifier = Amulet_analysis.Verifier
module Obs = Amulet_obs.Obs
module Hist = Amulet_obs.Hist
module Sched = Amulet_fleet_core.Sched

type observed =
  | O_build_rejected
  | O_guard of int
  | O_hw_fault
  | O_gate_rejected
  | O_kernel
  | O_breach
  | O_leak
  | O_silent

let observed_name = function
  | O_build_rejected -> "build-rej"
  | O_guard c -> Printf.sprintf "guard(%d)" c
  | O_hw_fault -> "hw-fault"
  | O_gate_rejected -> "gate-rej"
  | O_kernel -> "kernel"
  | O_breach -> "BREACH"
  | O_leak -> "leak"
  | O_silent -> "silent"

type cell = {
  cl_attack : string;
  cl_mode : Iso.mode;
  cl_expected : Attacks.layer;
  cl_observed : observed;
  cl_match : bool;
  cl_oracle_ok : bool;
  cl_breaches : string list;
  cl_breach_count : int;
  cl_canary_intact : bool;
  cl_os_intact : bool;
  cl_victim_alive : bool;
  cl_lint_rejected : bool option;
  cl_lint_ok : bool;
  cl_wcet_checked : int;
  cl_wcet_violations : int;
  cl_note : string;
  cl_dispatch : Hist.t;
}

type injection = {
  in_mode : Iso.mode;
  in_target : string;
  in_flips : int;
  in_log : string list;
  in_faults : (string * string) list;
  in_canary_intact : bool;
  in_os_intact : bool;
  in_deterministic : bool;
}

type summary = {
  s_cells : cell list;
  s_injections : injection list;
  s_mismatches : int;
  s_oracle_failures : int;
  s_lint_failures : int;
  s_nondeterministic : int;
  s_wcet_checked : int;
  s_wcet_violations : int;
  s_dispatch : (Iso.mode * Hist.t) list;
}

(* ------------------------------------------------------------------ *)
(* The isolation oracle                                                *)

type oracle = {
  mutable breaches : string list; (* reversed, capped at [breach_cap] *)
  mutable breach_count : int;
  mutable prev_in_app : bool;
}

let breach_cap = 8

let install_oracle k ~attacker_idx ~image =
  let m = k.Kernel.machine in
  let lay = k.Kernel.apps.(attacker_idx).Kernel.build.Aft.ab_layout in
  let code_lo = lay.Layout.code_base in
  let code_hi = code_lo + lay.Layout.code_size in
  let data_lo = lay.Layout.data_base and data_hi = lay.Layout.data_limit in
  let shared = not (Iso.separate_stacks k.Kernel.fw.Aft.fw_mode) in
  let in_app_code a = a >= code_lo && a < code_hi in
  let ok_data a =
    (a >= data_lo && a < data_hi)
    || (shared && a >= Map.sram_start && a < Map.sram_limit)
  in
  (* Entries control may legitimately reach when leaving app code: the
     API gates, the runtime helpers and the OS return path.  Everything
     else — OS internals, another app's code — is a breach. *)
  let sanctioned = Amulet_cc.Apis.externals image.Image.symbols in
  let o = { breaches = []; breach_count = 0; prev_in_app = false } in
  let note fmt =
    Printf.ksprintf
      (fun msg ->
        if o.breach_count < breach_cap then o.breaches <- msg :: o.breaches;
        o.breach_count <- o.breach_count + 1)
      fmt
  in
  M.add_watch m (fun ev ->
      if k.Kernel.current_app = attacker_idx then
        match ev with
        | Trace.Mem_write { addr; pc; value; _ }
          when in_app_code pc && not (ok_data addr) ->
          note "write %04X<-%04X from pc=%04X" addr value pc
        | Trace.Mem_read { addr; pc; _ }
          when in_app_code pc && not (ok_data addr || in_app_code addr) ->
          note "read %04X from pc=%04X" addr pc
        | Trace.Exec { pc; _ } ->
          let now_in = in_app_code pc in
          if o.prev_in_app && (not now_in) && not (Hashtbl.mem sanctioned pc)
          then note "exec %04X (unsanctioned exit from app code)" pc;
          o.prev_in_app <- now_in
        | Trace.Io_write { addr; _ } when Mpu.handles addr ->
          (* Io_write carries no pc: consult the machine registers —
             mid-instruction the PC already points past the store, but
             still inside (or just after) the offending code span. *)
          let pc = R.get_pc (M.regs m) in
          if in_app_code pc then
            note "MPU register %04X written from app code (pc~%04X)" addr pc
        | _ -> ());
  o

(* ------------------------------------------------------------------ *)
(* One campaign cell                                                   *)

let canary_words = 8
let canary_value = 49374 (* 0xC0DE, see Sec_sources.victim *)

let canary_intact m ~addr =
  let ok = ref true in
  for i = 0 to canary_words - 1 do
    if M.mem_checked_read m Word.W16 (addr + (2 * i)) <> canary_value then
      ok := false
  done;
  !ok

let app_index fw name =
  let rec go i = function
    | [] -> raise Not_found
    | b :: _ when b.Aft.ab_name = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 fw.Aft.fw_apps

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let matches expected observed =
  match (expected, observed) with
  | Attacks.L_build, O_build_rejected -> true
  | Attacks.L_guard, O_guard _ -> true
  | Attacks.L_mpu, O_hw_fault -> true
  | Attacks.L_gate, O_gate_rejected -> true
  | Attacks.L_kernel, O_kernel -> true
  | Attacks.L_none, O_breach -> true
  | Attacks.L_harmless, (O_leak | O_silent) -> true
  | _ -> false

let lint_rejects report = report.Lint.l_errors > 0

let app_wcet ~image ~mode prefix =
  match Amulet_analysis.Cfi.reconstruct ~image ~mode ~prefix with
  | Ok cfg -> Some (Amulet_analysis.Wcet.analyze ~image ~cfg)
  | Error _ | (exception Invalid_argument _) -> None

(* What the cells of one mode share, built just before them and
   dropped after them: the mode's proof diagnostics (they depend on the
   mode alone), the attack base, and the victim's WCET on the base's
   carrier firmware.  The base makes each of its parts once: the
   compiled victim and carrier, one OS layout per app order, and the
   carrier firmware the binary attacks patch.  A source cell compiles
   only its attacker and links it with the shared parts, and the
   mode's injection pair links the base's victim and carrier.  A
   payload rewrites only the carrier's handler, so the victim's bound
   is the same on every patched copy. *)
type context = {
  cx_mode : Iso.mode;
  cx_proofs : Lint.diag list;
  cx_base : Attacks.base;
  cx_victim_wcet : Amulet_analysis.Wcet.t option;
}

let context ~mode attacks =
  let base = Attacks.base mode attacks in
  {
    cx_mode = mode;
    cx_proofs = Lint.proof_diags mode;
    cx_base = base;
    cx_victim_wcet =
      Option.bind (Attacks.base_firmware base) (fun fw ->
          app_wcet ~image:fw.Aft.fw_image ~mode "victim");
  }

let run_cell_in ctx ~attack ~seed =
  let mode = ctx.cx_mode in
  let expected = attack.Attacks.atk_expect mode in
  let finish ?(lint = None) ?(note = "") ?(wcet = (0, 0))
      ?(dispatch = Hist.create ()) ~observed ~breaches ~breach_count
      ~canary ~os ~alive () =
    let oracle_ok =
      match expected with
      | Attacks.L_build | Attacks.L_guard | Attacks.L_mpu | Attacks.L_gate
      | Attacks.L_kernel ->
        breach_count = 0 && canary && os && alive
      | Attacks.L_harmless -> breach_count = 0 && os && alive
      | Attacks.L_none -> true
    in
    let lint_ok =
      match (attack.Attacks.atk_lint mode, lint) with
      | _, None -> true
      | Attacks.Must_reject, Some r -> r
      | Attacks.Must_accept, Some r -> not r
      | Attacks.Either, Some _ -> true
    in
    {
      cl_attack = attack.Attacks.atk_name;
      cl_mode = mode;
      cl_expected = expected;
      cl_observed = observed;
      cl_match = matches expected observed;
      cl_oracle_ok = oracle_ok;
      cl_breaches = List.rev breaches;
      cl_breach_count = breach_count;
      cl_canary_intact = canary;
      cl_os_intact = os;
      cl_victim_alive = alive;
      cl_lint_rejected = lint;
      cl_lint_ok = lint_ok;
      cl_wcet_checked = fst wcet;
      cl_wcet_violations = snd wcet;
      cl_note = note;
      cl_dispatch = dispatch;
    }
  in
  match Attacks.build_on ctx.cx_base ~attack with
  | Attacks.Rejected msg ->
    finish ~observed:O_build_rejected ~breaches:[] ~breach_count:0
      ~canary:true ~os:true ~alive:true ~note:msg ()
  | Attacks.Built { fw; attacker; victim; targets } ->
    let image = fw.Aft.fw_image in
    let report =
      Lint.run_with ~proofs:ctx.cx_proofs ~image ~mode ~apps:[ attacker ]
    in
    let lint = Some (lint_rejects report) in
    let k = Kernel.create ~policy:Kernel.Disable ~seed fw in
    let ai = app_index fw attacker and vi = app_index fw victim in
    let oracle = install_oracle k ~attacker_idx:ai ~image in
    let records = Kernel.run_for_ms k 60 in
    let dispatch = Hist.create () in
    List.iter
      (fun (r : Kernel.dispatch_record) ->
        Hist.record dispatch r.Kernel.dr_cycles)
      records;
    let attack_record =
      List.find_opt
        (fun (r : Kernel.dispatch_record) ->
          r.Kernel.dr_app = ai
          &&
          match r.Kernel.dr_kind with
          | Event.Timer_fired _ -> true
          | _ -> false)
        records
    in
    let m = k.Kernel.machine in
    let canary = canary_intact m ~addr:targets.Attacks.t_victim_canary in
    let os = Kernel.os_intact k in
    let alive = Kernel.liveness_probe k ~app:vi in
    let target_hit =
      match attack.Attacks.atk_target targets with
      | None -> false
      | Some a -> M.mem_checked_read m Word.W16 a = Attacks.attack_value
    in
    let breach = oracle.breach_count > 0 || (not canary) || not os in
    (* WCET soundness gate: every dispatch of a CFI-certified app whose
       handler carries a static bound must finish within it.  A cell
       where the oracle saw a breach is excluded — a run that escaped
       the certified control-flow graph voids the premise the static
       bound is conditional on (same layering as the paper: timing
       guarantees ride on the isolation guarantees).  The attacker's
       bounds come from its lint report and a binary cell's victim's
       from the mode's context; only a source cell's victim is
       analysed here. *)
    let wcet =
      if breach then (0, 0)
      else begin
        let reports =
          List.map
            (fun (b : Aft.app_build) ->
              let prefix = b.Aft.ab_name in
              if prefix = attacker then
                (prefix, (List.hd report.Lint.l_apps).Lint.r_wcet)
              else if attack.Attacks.atk_level = Attacks.Binary then
                (prefix, ctx.cx_victim_wcet)
              else (prefix, app_wcet ~image ~mode prefix))
            fw.Aft.fw_apps
        in
        List.fold_left
          (fun (checked, bad) (r : Kernel.dispatch_record) ->
            match r.Kernel.dr_outcome with
            | Kernel.No_handler -> (checked, bad)
            | Kernel.Ok | Kernel.App_fault _ -> (
              let name =
                (List.nth fw.Aft.fw_apps r.Kernel.dr_app).Aft.ab_name
              in
              match List.assoc name reports with
              | None -> (checked, bad)
              | Some w -> (
                match
                  Amulet_analysis.Wcet.handler_bound w
                    (Event.handler_name r.Kernel.dr_kind)
                with
                | Some (Amulet_analysis.Wcet.Bounded b) ->
                  ( checked + 1,
                    if r.Kernel.dr_cycles > b then bad + 1 else bad )
                | Some (Amulet_analysis.Wcet.Unbounded _) | None ->
                  (checked, bad))))
          (0, 0) records
      end
    in
    let gate_rejected =
      match k.Kernel.apps.(ai).Kernel.last_fault with
      | Some msg -> contains ~sub:"rejected by" msg
      | None -> false
    in
    let observed, note =
      match attack_record with
      | None -> (O_silent, "attack handler never dispatched")
      | Some r ->
        if breach then (O_breach, "")
        else (
          match r.Kernel.dr_outcome with
          | Kernel.App_fault msg
            when starts_with ~prefix:"software check fault " msg -> (
            match
              int_of_string_opt
                (String.sub msg 21 (String.length msg - 21))
            with
            | Some c -> (O_guard c, "")
            | None -> (O_guard (-1), msg))
          | Kernel.App_fault msg when contains ~sub:"MPU" msg ->
            (O_hw_fault, msg)
          | Kernel.App_fault msg -> (O_kernel, msg)
          | Kernel.Ok | Kernel.No_handler ->
            if gate_rejected then
              ( O_gate_rejected,
                Option.value ~default:"" k.Kernel.apps.(ai).Kernel.last_fault
              )
            else if target_hit then (O_leak, "write landed in permitted memory")
            else (O_silent, ""))
    in
    finish ~lint ~wcet ~dispatch ~observed ~breaches:oracle.breaches
      ~breach_count:oracle.breach_count ~canary ~os ~alive ~note ()

let run_cell ~attack ~mode ~seed =
  run_cell_in (context ~mode [ attack ]) ~attack ~seed

(* ------------------------------------------------------------------ *)
(* Fault-injection rows                                                *)

let injection_flips = 8
(* The benign pair executes a few thousand instructions over the run's
   500 virtual ms; spreading flips over the first 4000 keeps them
   inside the executed prefix while still straddling many dispatches. *)
let injection_window = (100, 4_000)

(* The benign victim+carrier pair every injection row of a mode
   boots, linked from the base's compiled apps. *)
let injection_pair ~mode base =
  let victim, carrier = Attacks.base_apps base in
  Aft.link (Aft.os ~mode [ "victim"; "carrier" ]) [ victim; carrier ]

(* One row boots the pair once and runs it twice from that boot:
   [Kernel.start] restores the booted machine exactly and drops the
   first run's injector hook, so the second run must reproduce the
   first. *)
let inject fw ~target ~seed =
  let canary_addr =
    Image.symbol fw.Aft.fw_image (Iso.mangle ~prefix:"victim" "canary")
  in
  let inj_target =
    match target with
    | `Regs -> Inject.Regs
    | `Mpu -> Inject.Mpu_config
    | `Fram ->
      let lay = (Aft.find_app fw "victim").Aft.ab_layout in
      Inject.Fram { lo = lay.Layout.data_base; hi = lay.Layout.data_limit }
  in
  let plan =
    Inject.plan ~seed ~flips:injection_flips ~window:injection_window
      inj_target
  in
  let boot = Kernel.boot fw in
  let run () =
    let k = Kernel.start ~policy:Kernel.Disable ~seed boot in
    let inj = Inject.arm plan k.Kernel.machine in
    ignore (Kernel.run_for_ms k 500);
    ( Inject.log inj,
      Inject.flips_done inj,
      Kernel.unrecovered_faults k,
      canary_intact k.Kernel.machine ~addr:canary_addr,
      Kernel.os_intact k )
  in
  let log1, flips, faults1, canary1, os1 = run () in
  let log2, _, faults2, canary2, os2 = run () in
  {
    in_mode = fw.Aft.fw_mode;
    in_target =
      (match target with `Regs -> "regs" | `Fram -> "fram" | `Mpu -> "mpu");
    in_flips = flips;
    in_log = log1;
    in_faults = faults1;
    in_canary_intact = canary1;
    in_os_intact = os1;
    in_deterministic =
      log1 = log2 && faults1 = faults2 && canary1 = canary2 && os1 = os2;
  }

let run_injection ~mode ~target ~seed =
  inject (injection_pair ~mode (Attacks.base mode [])) ~target ~seed

(* ------------------------------------------------------------------ *)
(* Parallel driver                                                     *)

let quick_names =
  [
    "src_wild_write_os";
    "src_wild_write_victim";
    "src_stack_smash";
    "src_gate_deputy_write";
    "src_probe_slack";
    "bin_wild_write_os";
    "bin_mpu_disable";
    "bin_jump_victim_code";
  ]

let run ?(quick = false) ?(jobs = 0) ?(only = []) ?(modes = Iso.all) ~seed ()
    =
  let attacks =
    Attacks.corpus
    |> List.filter (fun (a : Attacks.t) ->
           (not quick) || List.mem a.Attacks.atk_name quick_names)
    |> List.filter (fun (a : Attacks.t) ->
           only = [] || List.mem a.Attacks.atk_name only)
  in
  (* Mode-major: each mode's context is built just before its cells
     and injection rows and dropped after them, so one is alive at a
     time.  Cells share only the context, whose parts are each made
     once and never written after, and none of the toolchain libraries
     keeps module-level mutable state, so the fleet scheduler can hand
     them to any domain; Sched.map returns results in item order, so
     the summary is byte-identical whatever [jobs] was. *)
  let by_mode =
    List.map
      (fun mode ->
        let ctx = context ~mode attacks in
        let cells =
          Sched.map ~jobs (fun attack -> run_cell_in ctx ~attack ~seed) attacks
        in
        let injections =
          if quick then []
          else
            let fw = injection_pair ~mode ctx.cx_base in
            Sched.map ~jobs
              (fun target -> inject fw ~target ~seed)
              [ `Regs; `Fram; `Mpu ]
        in
        (cells, injections))
      modes
  in
  (* back to attack-major order: each attack under every mode in turn *)
  let rec transpose = function
    | [] | [] :: _ -> []
    | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)
  in
  let s_cells = List.concat (transpose (List.map fst by_mode)) in
  let s_injections = List.concat_map snd by_mode in
  (* merge the per-cell histograms into one distribution per mode:
     [Hist.merge] is associative and commutative, so the result is
     independent of how the cells were spread over the domains *)
  let s_dispatch =
    List.filter_map
      (fun m ->
        let h =
          List.fold_left
            (fun acc c ->
              if c.cl_mode = m then Hist.merge acc c.cl_dispatch else acc)
            (Hist.create ()) s_cells
        in
        if Hist.is_empty h then None else Some (m, h))
      modes
  in
  {
    s_cells;
    s_injections;
    s_dispatch;
    s_wcet_checked =
      List.fold_left (fun a c -> a + c.cl_wcet_checked) 0 s_cells;
    s_wcet_violations =
      List.fold_left (fun a c -> a + c.cl_wcet_violations) 0 s_cells;
    s_mismatches =
      List.length (List.filter (fun c -> not c.cl_match) s_cells);
    s_oracle_failures =
      List.length (List.filter (fun c -> not c.cl_oracle_ok) s_cells);
    s_lint_failures =
      List.length (List.filter (fun c -> not c.cl_lint_ok) s_cells);
    s_nondeterministic =
      List.length
        (List.filter (fun i -> not i.in_deterministic) s_injections);
  }

let ok s =
  s.s_mismatches = 0 && s.s_oracle_failures = 0 && s.s_lint_failures = 0
  && s.s_nondeterministic = 0 && s.s_wcet_violations = 0

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let emit_jsonl s oc =
  let sink = Obs.jsonl_sink oc in
  List.iteri
    (fun i c ->
      sink.Obs.output
        (Obs.Instant
           {
             name = c.cl_attack;
             cat = "campaign";
             ts = i;
             tid = 0;
             args =
               [
                 ("mode", Obs.Vstr (Iso.name c.cl_mode));
                 ("expected", Obs.Vstr (Attacks.layer_name c.cl_expected));
                 ("observed", Obs.Vstr (observed_name c.cl_observed));
                 ("match", Obs.Vint (if c.cl_match then 1 else 0));
                 ("oracle_ok", Obs.Vint (if c.cl_oracle_ok then 1 else 0));
                 ("breaches", Obs.Vint c.cl_breach_count);
                 ("canary_intact", Obs.Vint (if c.cl_canary_intact then 1 else 0));
                 ("os_intact", Obs.Vint (if c.cl_os_intact then 1 else 0));
                 ("victim_alive", Obs.Vint (if c.cl_victim_alive then 1 else 0));
                 ( "lint",
                   Obs.Vstr
                     (match c.cl_lint_rejected with
                     | None -> "n/a"
                     | Some true -> "rejected"
                     | Some false -> "accepted") );
                 ("lint_ok", Obs.Vint (if c.cl_lint_ok then 1 else 0));
                 ("wcet_checked", Obs.Vint c.cl_wcet_checked);
                 ("wcet_violations", Obs.Vint c.cl_wcet_violations);
                 ("note", Obs.Vstr c.cl_note);
               ];
           }))
    s.s_cells;
  List.iteri
    (fun i inj ->
      sink.Obs.output
        (Obs.Instant
           {
             name = "inject_" ^ inj.in_target;
             cat = "injection";
             ts = i;
             tid = 1;
             args =
               [
                 ("mode", Obs.Vstr (Iso.name inj.in_mode));
                 ("flips", Obs.Vint inj.in_flips);
                 ("faults", Obs.Vint (List.length inj.in_faults));
                 ("canary_intact", Obs.Vint (if inj.in_canary_intact then 1 else 0));
                 ("os_intact", Obs.Vint (if inj.in_os_intact then 1 else 0));
                 ( "deterministic",
                   Obs.Vint (if inj.in_deterministic then 1 else 0) );
                 ("log", Obs.Vstr (String.concat "; " inj.in_log));
               ];
           }))
    s.s_injections;
  sink.Obs.close ()

let pp_matrix ppf s =
  let attacks =
    List.sort_uniq compare (List.map (fun c -> c.cl_attack) s.s_cells)
  in
  (* preserve corpus order *)
  let attacks =
    List.filter
      (fun (a : Attacks.t) -> List.mem a.Attacks.atk_name attacks)
      Attacks.corpus
    |> List.map (fun (a : Attacks.t) -> a.Attacks.atk_name)
  in
  let modes =
    List.filter
      (fun m -> List.exists (fun c -> c.cl_mode = m) s.s_cells)
      Iso.all
  in
  let cell name mode =
    List.find_opt
      (fun c -> c.cl_attack = name && c.cl_mode = mode)
      s.s_cells
  in
  Format.fprintf ppf "%-24s" "attack";
  List.iter (fun m -> Format.fprintf ppf " %-14s" (Iso.name m)) modes;
  Format.fprintf ppf "@.";
  List.iter
    (fun name ->
      Format.fprintf ppf "%-24s" name;
      List.iter
        (fun m ->
          match cell name m with
          | None -> Format.fprintf ppf " %-14s" "-"
          | Some c ->
            let mark =
              if c.cl_match && c.cl_oracle_ok && c.cl_lint_ok then ' '
              else '!'
            in
            Format.fprintf ppf " %c%-13s" mark (observed_name c.cl_observed))
        modes;
      Format.fprintf ppf "@.")
    attacks;
  if s.s_dispatch <> [] then begin
    Format.fprintf ppf
      "@.dispatch cycles across all cells (merged histograms):@.";
    Format.fprintf ppf "  %-16s %8s %8s %8s %8s %8s@." "mode" "dispatches"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (m, h) ->
        Format.fprintf ppf "  %-16s %8d %8d %8d %8d %8d@." (Iso.name m)
          (Hist.count h) (Hist.quantile h 0.5) (Hist.quantile h 0.9)
          (Hist.quantile h 0.99) (Hist.max_value h))
      s.s_dispatch
  end;
  if s.s_injections <> [] then begin
    Format.fprintf ppf "@.fault injection (seeded, informational):@.";
    List.iter
      (fun i ->
        Format.fprintf ppf
          "  %-10s %-5s %d flips, %d app faults, canary %s, OS %s%s@."
          (Iso.name i.in_mode) i.in_target i.in_flips
          (List.length i.in_faults)
          (if i.in_canary_intact then "intact" else "CORRUPTED")
          (if i.in_os_intact then "intact" else "CORRUPTED")
          (if i.in_deterministic then "" else "  NON-DETERMINISTIC"))
      s.s_injections
  end;
  List.iter
    (fun c ->
      if c.cl_wcet_violations > 0 then
        Format.fprintf ppf
          "@.UNSOUND %s under %s: %d of %d dispatches exceeded their static \
           WCET bound@."
          c.cl_attack (Iso.name c.cl_mode) c.cl_wcet_violations
          c.cl_wcet_checked;
      if not (c.cl_match && c.cl_oracle_ok && c.cl_lint_ok) then begin
        Format.fprintf ppf "@.FAIL %s under %s: expected %s, observed %s@."
          c.cl_attack (Iso.name c.cl_mode)
          (Attacks.layer_name c.cl_expected)
          (observed_name c.cl_observed);
        if not c.cl_oracle_ok then
          Format.fprintf ppf
            "  oracle: %d breaches, canary %b, os %b, victim alive %b@."
            c.cl_breach_count c.cl_canary_intact c.cl_os_intact
            c.cl_victim_alive;
        List.iter (fun b -> Format.fprintf ppf "    %s@." b) c.cl_breaches;
        if not c.cl_lint_ok then
          Format.fprintf ppf "  lint: %s@."
            (match c.cl_lint_rejected with
            | Some true -> "rejected (expected accepted)"
            | Some false -> "accepted (expected rejected)"
            | None -> "n/a");
        if c.cl_note <> "" then Format.fprintf ppf "  note: %s@." c.cl_note
      end)
    s.s_cells;
  Format.fprintf ppf
    "@.%d cells: %d mismatches, %d oracle failures, %d lint failures; WCET \
     soundness %d/%d dispatches within bound; %d injection rows (%d \
     non-deterministic)@."
    (List.length s.s_cells) s.s_mismatches s.s_oracle_failures
    s.s_lint_failures
    (s.s_wcet_checked - s.s_wcet_violations)
    s.s_wcet_checked
    (List.length s.s_injections)
    s.s_nondeterministic
