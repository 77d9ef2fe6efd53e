(* Security subsystem tests: MPU granularity slack, oracle behaviour,
   injector determinism, and the kernel integrity probes the campaign
   relies on. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Layout = Amulet_aft.Layout
module Kernel = Amulet_os.Kernel
module Attacks = Amulet_sec.Attacks
module Campaign = Amulet_sec.Campaign
module Inject = Amulet_sec.Inject
module Proofcheck = Amulet_sec.Proofcheck

let seed = 1234

let build_exn ~attack ~mode =
  match Attacks.build_cell ~attack ~mode with
  | Attacks.Built { fw; attacker; targets; _ } -> (fw, attacker, targets)
  | Attacks.Rejected msg ->
    Alcotest.failf "%s rejected under %s: %s" attack.Attacks.atk_name
      (Iso.name mode) msg

(* ------------------------------------------------------------------ *)
(* MPU 1 KiB granularity: the slack bytes of a granule-rounded data
   segment are writable even though the app never declared them. *)

let test_slack_geometry () =
  let attack = Attacks.find "src_probe_slack" in
  let fw, attacker, targets = build_exn ~attack ~mode:Iso.Mpu_assisted in
  let lay = (Aft.find_app fw attacker).Aft.ab_layout in
  let tgt = targets.Attacks.t_self_slack in
  Alcotest.(check bool) "data region is granule-rounded" true
    ((lay.Layout.data_limit - lay.Layout.data_base) mod 0x400 = 0);
  Alcotest.(check bool) "attacker declares globals" true
    (lay.Layout.globals_size > 0);
  Alcotest.(check bool) "target is above the declared globals" true
    (tgt >= lay.Layout.data_base + lay.Layout.globals_size);
  Alcotest.(check bool) "target is below the segment limit" true
    (tgt < lay.Layout.data_limit)

let test_mpu_slack_leak () =
  (* The write lands: no fault, no breach — the documented granularity
     over-permission.  Contrast with test_mpu_probe_below. *)
  List.iter
    (fun name ->
      let cell =
        Campaign.run_cell ~attack:(Attacks.find name) ~mode:Iso.Mpu_assisted
          ~seed
      in
      Alcotest.(check bool)
        (name ^ " slack write is tolerated") true cell.Campaign.cl_match;
      Alcotest.(check int)
        (name ^ " no oracle breach") 0 cell.Campaign.cl_breach_count;
      Alcotest.(check bool)
        (name ^ " victim canary intact") true cell.Campaign.cl_canary_intact;
      match cell.Campaign.cl_observed with
      | Campaign.O_leak | Campaign.O_silent -> ()
      | o ->
        Alcotest.failf "%s: expected leak/silent, observed %s" name
          (Campaign.observed_name o))
    [ "src_probe_slack"; "bin_probe_slack" ]

let test_mpu_probe_below () =
  (* Two bytes below the segment base is outside the granule: the MPU
     faults the very store that the slack probe got away with. *)
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "bin_probe_below")
      ~mode:Iso.Mpu_assisted ~seed
  in
  Alcotest.(check bool) "below-base store matches" true cell.Campaign.cl_match;
  (match cell.Campaign.cl_observed with
  | Campaign.O_hw_fault -> ()
  | o ->
    Alcotest.failf "expected hw-fault below base, observed %s"
      (Campaign.observed_name o));
  Alcotest.(check bool) "oracle holds" true cell.Campaign.cl_oracle_ok

(* ------------------------------------------------------------------ *)
(* Oracle: catches a real cross-app breach, stays quiet on a contained
   one. *)

let test_oracle_breach_detection () =
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "bin_wild_write_victim")
      ~mode:Iso.Software_only ~seed
  in
  Alcotest.(check bool) "binary attack defeats software-only" true
    cell.Campaign.cl_match;
  Alcotest.(check bool) "oracle recorded the breach" true
    (cell.Campaign.cl_breach_count > 0);
  Alcotest.(check bool) "victim canary was clobbered" false
    cell.Campaign.cl_canary_intact

let test_oracle_contained () =
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "src_wild_write_victim")
      ~mode:Iso.Mpu_assisted ~seed
  in
  Alcotest.(check bool) "MPU contains the wild write" true
    cell.Campaign.cl_match;
  Alcotest.(check int) "no breach recorded" 0 cell.Campaign.cl_breach_count;
  Alcotest.(check bool) "canary intact" true cell.Campaign.cl_canary_intact;
  Alcotest.(check bool) "victim still schedulable" true
    cell.Campaign.cl_victim_alive

(* ------------------------------------------------------------------ *)
(* Quick corpus smoke: the CI subset matches expectations under the
   two extreme modes. *)

let test_quick_corpus () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          let cell =
            Campaign.run_cell ~attack:(Attacks.find name) ~mode ~seed
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s matches" name (Iso.name mode))
            true cell.Campaign.cl_match;
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s oracle ok" name (Iso.name mode))
            true cell.Campaign.cl_oracle_ok;
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s lint ok" name (Iso.name mode))
            true cell.Campaign.cl_lint_ok)
        [ Iso.No_isolation; Iso.Mpu_assisted ])
    Campaign.quick_names

(* ------------------------------------------------------------------ *)
(* Corpus ⇔ proof crosscheck: every expectation in the attack corpus
   falls out of the abstract machine as a theorem or as a concretely
   replayed counterexample — zero mismatches tolerated. *)

let test_crosscheck_total () =
  List.iter
    (fun (a : Attacks.t) ->
      if Proofcheck.scenario_of a = None then
        Alcotest.failf "%s has no abstract restatement" a.Attacks.atk_name)
    Attacks.corpus

let test_crosscheck_matrix () =
  let rows = Proofcheck.run () in
  Alcotest.(check int) "one row per attack x mode"
    (4 * List.length Attacks.corpus)
    (List.length rows);
  List.iter
    (fun r ->
      if not (Proofcheck.row_ok r) then
        Alcotest.failf "%s" (Format.asprintf "%a" Proofcheck.pp_row r))
    rows;
  (* the negative cells really are backed by concrete replays *)
  let replayed =
    List.length
      (List.filter
         (fun r -> r.Proofcheck.cc_verdict = Proofcheck.V_counterexample)
         rows)
  in
  Alcotest.(check bool) "some counterexamples were replayed" true (replayed > 0)

(* The vector-page hole end-to-end: the Mpu_assisted guard is
   lower-bound-only and the MPU stops at fram_limit, so a compiled
   wild write at 0xFF80+ lands — the campaign cell must observe the
   breach the proof layer predicts (and software-only must guard it). *)
let test_vector_hole_campaign () =
  let attack = Attacks.find "src_wild_write_vectors" in
  let mpu = Campaign.run_cell ~attack ~mode:Iso.Mpu_assisted ~seed in
  Alcotest.(check bool) "mpu-assisted cell matches (breach expected)" true
    mpu.Campaign.cl_match;
  Alcotest.(check bool) "breach recorded above fram_limit" true
    (mpu.Campaign.cl_breach_count > 0);
  let sw = Campaign.run_cell ~attack ~mode:Iso.Software_only ~seed in
  Alcotest.(check bool) "software-only guard catches it" true
    sw.Campaign.cl_match;
  match sw.Campaign.cl_observed with
  | Campaign.O_guard _ -> ()
  | o ->
    Alcotest.failf "expected guard under software-only, observed %s"
      (Campaign.observed_name o)

(* ------------------------------------------------------------------ *)
(* Injector: seeded schedules reproduce exactly. *)

let test_injector_determinism () =
  let inj =
    Campaign.run_injection ~mode:Iso.Mpu_assisted ~target:`Regs ~seed:5
  in
  Alcotest.(check bool) "flips were applied" true (inj.Campaign.in_flips > 0);
  Alcotest.(check bool) "identical re-run reproduces" true
    inj.Campaign.in_deterministic

let test_injector_plan_reproducible () =
  let mk () =
    let m = Amulet_mcu.Machine.create () in
    let words =
      List.concat_map Amulet_mcu.Encode.encode
        [
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 2000,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.SUB,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Jump (Amulet_mcu.Opcode.JNE, -2);
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_absolute Amulet_mcu.Machine.halt_port );
        ]
    in
    Amulet_mcu.Machine.load_words m ~addr:0x4400 words;
    Amulet_mcu.Machine.set_reset_vector m 0x4400;
    Amulet_mcu.Machine.reset m;
    m
  in
  let run s =
    let m = mk () in
    let inj = Inject.arm (Inject.plan ~seed:s ~flips:4 ~window:(10, 2_000) Inject.Regs) m in
    ignore (Amulet_mcu.Machine.run m);
    (Inject.flips_done inj, Inject.log inj)
  in
  let f1, l1 = run 11 in
  let f2, l2 = run 11 in
  let _, l3 = run 12 in
  Alcotest.(check int) "all scheduled flips applied" 4 f1;
  Alcotest.(check int) "same seed, same flip count" f1 f2;
  Alcotest.(check (list string)) "same seed, same flip log" l1 l2;
  Alcotest.(check bool) "different seed, different schedule" true (l1 <> l3)

let test_injector_mpu_raw_replay () =
  (* Mpu_config flips go through [Mpu.raw_set] (the password/lock
     bypass): the same seed must leave the raw register file in the
     same final state, and the flips must land even when the unit is
     locked against MMIO writes. *)
  let module M = Amulet_mcu.Machine in
  let module Mpu = Amulet_mcu.Mpu in
  let mk () =
    let m = M.create () in
    let words =
      List.concat_map Amulet_mcu.Encode.encode
        [
          (* lock the MPU through the front door, then spin *)
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 0xA502,
              Amulet_mcu.Opcode.D_absolute Mpu.ctl0_addr );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 500,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.SUB,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Jump (Amulet_mcu.Opcode.JNE, -2);
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_absolute M.halt_port );
        ]
    in
    M.load_words m ~addr:0x4400 words;
    M.set_reset_vector m 0x4400;
    M.reset m;
    m
  in
  let dump m =
    List.map
      (fun r -> Mpu.raw_get m.M.mpu r)
      [ Mpu.Raw_ctl0; Mpu.Raw_ctl1; Mpu.Raw_segb1; Mpu.Raw_segb2; Mpu.Raw_sam ]
  in
  (* control run, no injector: the firmware locks the unit via MMIO *)
  let clean =
    let m = mk () in
    ignore (M.run m);
    Alcotest.(check bool) "MPU locked by the firmware" true
      (Mpu.locked m.M.mpu);
    dump m
  in
  let run s =
    let m = mk () in
    let inj =
      Inject.arm (Inject.plan ~seed:s ~flips:6 ~window:(10, 1_000) Inject.Mpu_config) m
    in
    ignore (M.run m);
    (Inject.log inj, dump m)
  in
  let l1, d1 = run 77 in
  let l2, d2 = run 77 in
  let _, d3 = run 78 in
  Alcotest.(check bool) "flips were applied" true (l1 <> []);
  Alcotest.(check bool) "flips landed despite the lock" true (d1 <> clean);
  Alcotest.(check (list string)) "same seed, same flip log" l1 l2;
  Alcotest.(check (list int)) "same seed, same raw register file" d1 d2;
  Alcotest.(check bool) "different seed, different register file" true
    (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Kernel integrity probes used by the campaign and amulet sim. *)

let benign_fw mode =
  let module Apps = Amulet_apps.Suite in
  Aft.build ~mode
    (List.map (Apps.spec_for mode) [ Apps.security_victim; Apps.security_carrier ])

let test_kernel_probes_clean () =
  let fw = benign_fw Iso.Mpu_assisted in
  let k = Kernel.create ~policy:Kernel.Disable ~seed fw in
  let _ = Kernel.run_for_ms k 2_000 in
  Alcotest.(check bool) "OS code checksum holds" true (Kernel.os_intact k);
  Alcotest.(check bool) "victim answers a liveness probe" true
    (Kernel.liveness_probe k ~app:0);
  Alcotest.(check (list (pair string string))) "no unrecovered faults" []
    (Kernel.unrecovered_faults k)

(* Stores into the first OS code word (0x4400). *)
let faulty_fw mode =
  let faulty =
    {|
void handle_init(int arg) { api_set_timer(100); }
void handle_timer(int arg) {
  int *p = (int*)0x4400;
  *p = 1;
}
|}
  in
  Aft.build ~mode
    [
      { Aft.name = "victim"; source = Amulet_apps.Sec_sources.victim };
      { Aft.name = "faulty"; source = faulty };
    ]

let test_kernel_probes_faulty () =
  let fw = faulty_fw Iso.Mpu_assisted in
  let k = Kernel.create ~policy:Kernel.Disable ~seed fw in
  let _ = Kernel.run_for_ms k 2_000 in
  Alcotest.(check bool) "OS survives" true (Kernel.os_intact k);
  match Kernel.unrecovered_faults k with
  | [ (name, _) ] -> Alcotest.(check string) "faulty app disabled" "faulty" name
  | l -> Alcotest.failf "expected one unrecovered fault, got %d" (List.length l)

(* Without isolation the store lands in OS code, and [os_intact] must
   see it whether the kernel booted fresh or was started from a boot
   another kernel dirtied; the next start puts the code back. *)
let test_kernel_probes_os_write () =
  let fw = faulty_fw Iso.No_isolation in
  let run k =
    ignore (Kernel.run_for_ms k 2_000);
    Kernel.os_intact k
  in
  Alcotest.(check bool) "fresh kernel: OS code changed" false
    (run (Kernel.create ~policy:Kernel.Disable ~seed fw));
  let boot = Kernel.boot fw in
  ignore (run (Kernel.start ~policy:Kernel.Disable ~seed:(seed + 1) boot));
  Alcotest.(check bool) "restored kernel: OS code changed" false
    (run (Kernel.start ~policy:Kernel.Disable ~seed boot));
  Alcotest.(check bool) "next start: OS code restored" true
    (Kernel.os_intact (Kernel.start ~policy:Kernel.Disable ~seed boot))

(* ------------------------------------------------------------------ *)
(* The shared path: [Campaign.run] builds what a mode's cells share
   once (the proof diagnostics, the carrier the binary attacks patch,
   the victim's WCET on it) and must give exactly what the one-cell
   entry points give, each building everything itself. *)

let same_cell (a : Campaign.cell) (b : Campaign.cell) =
  let module Hist = Amulet_obs.Hist in
  let strip c = { c with Campaign.cl_dispatch = Hist.create () } in
  strip a = strip b
  && Hist.equal a.Campaign.cl_dispatch b.Campaign.cl_dispatch

let test_shared_path_equals_single_cells () =
  let s = Campaign.run ~jobs:1 ~seed () in
  let cells =
    List.concat_map
      (fun a -> List.map (fun m -> (a, m)) Iso.all)
      Attacks.corpus
  in
  Alcotest.(check int) "one cell per attack x mode" (List.length cells)
    (List.length s.Campaign.s_cells);
  List.iter2
    (fun (attack, mode) c ->
      if not (same_cell c (Campaign.run_cell ~attack ~mode ~seed)) then
        Alcotest.failf "%s under %s: run differs from run_cell"
          attack.Attacks.atk_name (Iso.name mode))
    cells s.Campaign.s_cells;
  let rows =
    List.concat_map
      (fun m -> List.map (fun t -> (m, t)) [ `Regs; `Fram; `Mpu ])
      Iso.all
  in
  Alcotest.(check int) "three injection rows per mode" (List.length rows)
    (List.length s.Campaign.s_injections);
  List.iter2
    (fun (mode, target) i ->
      if i <> Campaign.run_injection ~mode ~target ~seed then
        Alcotest.failf "%s/%s: run differs from run_injection" (Iso.name mode)
          i.Campaign.in_target)
    rows s.Campaign.s_injections

(* Why a binary cell may reuse the base's victim WCET: a payload
   rewrites only the carrier's [handle_timer] in a copy, so the base
   stays as built and the victim's bound is the same on every patched
   image. *)
let test_binary_cells_share_victim_wcet () =
  let module Cfi = Amulet_analysis.Cfi in
  let module Wcet = Amulet_analysis.Wcet in
  let module Image = Amulet_link.Image in
  let binary =
    List.filter
      (fun a -> a.Attacks.atk_level = Attacks.Binary)
      Attacks.corpus
  in
  let bytes_of (image : Image.t) =
    List.concat_map
      (fun (base, b) ->
        List.init (Bytes.length b) (fun i -> (base + i, Bytes.get b i)))
      image.Image.chunks
  in
  List.iter
    (fun mode ->
      let base = Attacks.base mode binary in
      let base_fw =
        match Attacks.base_firmware base with
        | Some fw -> fw
        | None -> Alcotest.fail "binary attacks but no carrier"
      in
      let before = bytes_of base_fw.Aft.fw_image in
      let victim_wcet (fw : Aft.firmware) =
        let image = fw.Aft.fw_image in
        match Cfi.reconstruct ~image ~mode ~prefix:"victim" with
        | Ok cfg -> Wcet.analyze ~image ~cfg
        | Error _ -> Alcotest.failf "victim fails CFI under %s" (Iso.name mode)
      in
      let shared = victim_wcet base_fw in
      let lo, hi =
        Option.get
          (Image.span base_fw.Aft.fw_image
             (Iso.mangle ~prefix:"carrier" "handle_timer"))
      in
      List.iter
        (fun attack ->
          let name =
            Printf.sprintf "%s under %s" attack.Attacks.atk_name
              (Iso.name mode)
          in
          match Attacks.build_on base ~attack with
          | Attacks.Rejected msg -> Alcotest.failf "%s rejected: %s" name msg
          | Attacks.Built { fw; _ } ->
            List.iter2
              (fun (a, x) (_, y) ->
                if x <> y && (a < lo || a >= hi) then
                  Alcotest.failf "%s: patch wrote %04X, outside the handler"
                    name a)
              before (bytes_of fw.Aft.fw_image);
            if victim_wcet fw <> shared then
              Alcotest.failf "%s: victim WCET differs from the base's" name)
        binary;
      Alcotest.(check bool)
        (Iso.name mode ^ " base unchanged by the patches")
        true
        (bytes_of base_fw.Aft.fw_image = before))
    Iso.all

(* The shared parts: a mode's base compiles the victim and the carrier
   once and lays out each app order's OS once, and a source cell
   compiles only its attacker and links it with them.  Every cell, and
   the injection pair, must equal what a fresh build from source gives:
   the two-phase [Aft.build] below for a source cell, one
   [Aft.build] for the binary cells' carrier and the injection pair. *)

let parts = Test_support.Fw_parts.of_firmware

let fresh_source ~mode (attack : Attacks.t) gen =
  let victim = Amulet_apps.Suite.(spec_for mode security_victim) in
  let build ~certify targets =
    let attacker = { Aft.name = "attacker"; source = gen targets } in
    Aft.build ~mode ~certify
      (match attack.Attacks.atk_position with
      | Attacks.First -> [ attacker; victim ]
      | Attacks.Last -> [ victim; attacker ])
  in
  match build ~certify:false Attacks.placeholder_targets with
  | exception (Aft.Source_error { msg; _ } | Aft.Build_error msg) -> Error msg
  | fw_a ->
    let targets = Attacks.resolve_targets fw_a ~attacker:"attacker" in
    Ok (build ~certify:true targets, targets)

let test_shared_builds_equal_fresh () =
  let pair mode first second =
    Aft.build ~mode
      (List.map (Amulet_apps.Suite.spec_for mode) [ first; second ])
  in
  List.iter
    (fun mode ->
      let open Amulet_apps.Suite in
      let base = Attacks.base mode Attacks.corpus in
      let carrier = pair mode security_carrier security_victim in
      let base_fw = Option.get (Attacks.base_firmware base) in
      let fail what = Alcotest.failf "%s under %s: %s" what (Iso.name mode) in
      if parts base_fw <> parts carrier then
        fail "carrier base" "differs from a fresh build";
      List.iter
        (fun (attack : Attacks.t) ->
          let name = attack.Attacks.atk_name in
          match (Attacks.build_on base ~attack, attack.Attacks.atk_source) with
          | Attacks.Rejected msg, Some gen -> (
            match fresh_source ~mode attack gen with
            | Error m when m = msg -> ()
            | Error m ->
              fail name (Printf.sprintf "rejected as %S, fresh as %S" msg m)
            | Ok _ -> fail name "rejected, but a fresh build links")
          | Attacks.Built { fw; targets; _ }, Some gen -> (
            match fresh_source ~mode attack gen with
            | Error m ->
              fail name ("built, but a fresh build is rejected: " ^ m)
            | Ok (fresh, fresh_targets) ->
              if parts fw <> parts fresh then fail name "image differs";
              if targets <> fresh_targets then fail name "targets differ")
          | Attacks.Built { fw; targets; _ }, None ->
            (* a payload patches only chunk bytes *)
            let _, symbols, notes, entry, apps = parts fw
            and _, symbols', notes', entry', apps' = parts carrier in
            if
              (symbols, notes, entry, apps)
              <> (symbols', notes', entry', apps')
            then fail name "differs from the fresh carrier beyond its chunks";
            if targets <> Attacks.resolve_targets carrier ~attacker:"carrier"
            then fail name "targets differ"
          | Attacks.Rejected msg, None -> fail name ("rejected: " ^ msg))
        Attacks.corpus;
      if
        parts (Campaign.injection_pair ~mode base)
        <> parts (pair mode security_victim security_carrier)
      then fail "injection pair" "differs from a fresh build")
    Iso.all

(* ------------------------------------------------------------------ *)
(* Campaign telemetry: the per-mode dispatch-cycle histograms are
   merged from per-cell shards computed on parallel domains; the merge
   is associative/commutative, so the result must not depend on the
   number of domains. *)

let test_campaign_hist_jobs_invariant () =
  let module Hist = Amulet_obs.Hist in
  let only = [ "src_probe_slack"; "src_gate_deputy_write" ] in
  let modes = [ Iso.Software_only; Iso.Mpu_assisted ] in
  let s1 = Campaign.run ~quick:true ~jobs:1 ~only ~modes ~seed () in
  let s2 = Campaign.run ~quick:true ~jobs:2 ~only ~modes ~seed () in
  Alcotest.(check int)
    "same mode count"
    (List.length s1.Campaign.s_dispatch)
    (List.length s2.Campaign.s_dispatch);
  Alcotest.(check bool)
    "histograms present" true
    (s1.Campaign.s_dispatch <> []);
  List.iter2
    (fun (m1, h1) (m2, h2) ->
      Alcotest.(check string) "mode order" (Iso.name m1) (Iso.name m2);
      Alcotest.(check bool)
        (Iso.name m1 ^ " histogram non-empty")
        true
        (Hist.count h1 > 0);
      Alcotest.(check bool)
        (Iso.name m1 ^ " merged hist independent of jobs")
        true (Hist.equal h1 h2))
    s1.Campaign.s_dispatch s2.Campaign.s_dispatch

let () =
  Alcotest.run "sec"
    [
      ( "mpu-granularity",
        [
          Alcotest.test_case "slack geometry" `Quick test_slack_geometry;
          Alcotest.test_case "slack write tolerated" `Quick test_mpu_slack_leak;
          Alcotest.test_case "below-base store faults" `Quick
            test_mpu_probe_below;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "detects a real breach" `Quick
            test_oracle_breach_detection;
          Alcotest.test_case "quiet when contained" `Quick test_oracle_contained;
        ] );
      ( "corpus",
        [ Alcotest.test_case "quick subset matches" `Slow test_quick_corpus ] );
      ( "telemetry",
        [
          Alcotest.test_case "merged hists independent of jobs" `Slow
            test_campaign_hist_jobs_invariant;
        ] );
      ( "shared-path",
        [
          Alcotest.test_case "run = run_cell and run_injection" `Slow
            test_shared_path_equals_single_cells;
          Alcotest.test_case "binary cells share the victim WCET" `Quick
            test_binary_cells_share_victim_wcet;
          Alcotest.test_case "shared builds = fresh builds" `Quick
            test_shared_builds_equal_fresh;
        ] );
      ( "proof-crosscheck",
        [
          Alcotest.test_case "every attack modelled" `Quick
            test_crosscheck_total;
          Alcotest.test_case "zero mismatches" `Quick test_crosscheck_matrix;
          Alcotest.test_case "vector hole end-to-end" `Slow
            test_vector_hole_campaign;
        ] );
      ( "injector",
        [
          Alcotest.test_case "campaign row deterministic" `Quick
            test_injector_determinism;
          Alcotest.test_case "plan reproducible" `Quick
            test_injector_plan_reproducible;
          Alcotest.test_case "mpu raw flips replay" `Quick
            test_injector_mpu_raw_replay;
        ] );
      ( "kernel-probes",
        [
          Alcotest.test_case "clean run" `Quick test_kernel_probes_clean;
          Alcotest.test_case "faulty app surfaces" `Quick
            test_kernel_probes_faulty;
          Alcotest.test_case "OS code write detected" `Quick
            test_kernel_probes_os_write;
        ] );
    ]
