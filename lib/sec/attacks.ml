module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Layout = Amulet_aft.Layout
module Image = Amulet_link.Image
module Mpu = Amulet_mcu.Mpu
module Map = Amulet_mcu.Memory_map
module O = Amulet_mcu.Opcode
module Suite = Amulet_apps.Suite

type level = Source | Binary
type position = First | Last

type layer =
  | L_build
  | L_guard
  | L_mpu
  | L_gate
  | L_kernel
  | L_none
  | L_harmless

let layer_name = function
  | L_build -> "build"
  | L_guard -> "guard"
  | L_mpu -> "mpu"
  | L_gate -> "gate"
  | L_kernel -> "kernel"
  | L_none -> "none"
  | L_harmless -> "harmless"

type lint_expect = Must_reject | Must_accept | Either

type targets = {
  t_os_slot : int;
  t_os_entry : int;
  t_victim_canary : int;
  t_victim_entry : int;
  t_victim_limit : int;
  t_sram : int;
  t_self_below : int;
  t_self_slack : int;
}

(* 0xABCD never hits a constant generator, so phase-A instruction
   sizes match the phase-B rebuild with real addresses. *)
let placeholder_targets =
  {
    t_os_slot = 0xABCD;
    t_os_entry = 0xABCD;
    t_victim_canary = 0xABCD;
    t_victim_entry = 0xABCD;
    t_victim_limit = 0xAC00;
    t_sram = 0xABCD;
    t_self_below = 0xABCD;
    t_self_slack = 0xABCD;
  }

let attack_value = 12345

(* An unused interrupt-vector slot: inside [0xFF80, 0x10000), which the
   MPU never covers and the Mpu_assisted lower-bound-only guard never
   checks — the vector-page hole the proof layer states as the
   [mpu-compiled-vectors] refutable obligation.  Kept away from the
   reset and MPU-fault vectors so the running cell is not disturbed. *)
let vector_slot = Map.vectors_start + 0x40

type t = {
  atk_name : string;
  atk_level : level;
  atk_descr : string;
  atk_position : position;
  atk_source : (targets -> string) option;
  atk_payload : (targets -> O.t list) option;
  atk_target : targets -> int option;
  atk_expect : Iso.mode -> layer;
  atk_lint : Iso.mode -> lint_expect;
}

(* ------------------------------------------------------------------ *)
(* Source-level attack templates                                       *)

(* Every source attacker arms a 50 ms one-shot timer in init and
   strikes in [handle_timer], so the victim's init (which seeds its
   canary) has already run whatever the link order. *)

let src_wild_write addr =
  Printf.sprintf
    {|
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  int *p = (int*)0x%04X;
  *p = %d;
}
|}
    addr attack_value

let src_wild_read addr =
  Printf.sprintf
    {|
int leak = 0;
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  int *p = (int*)0x%04X;
  leak = *p;
}
|}
    addr

(* Like [src_wild_write], but with a declared global so the attacker's
   data segment is non-empty even in the shared-stack modes (where the
   segment holds globals only and would otherwise collapse to zero
   bytes, putting [data_limit - 2] in inter-app padding). *)
let src_probe_slack_src addr =
  Printf.sprintf
    {|
int owned[4];
void handle_init(int arg) { api_set_timer(50); owned[0] = 1; }
void handle_timer(int arg) {
  int *p = (int*)0x%04X;
  *p = %d;
}
|}
    addr attack_value

let src_stack_smash _ =
  {|
int depth = 0;
int grow(int n) {
  int pad[8];
  pad[0] = n + depth;
  depth += 1;
  return grow(n + 1) + pad[0];
}
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) { depth = grow(arg); }
|}

let src_gate_deputy_write t =
  Printf.sprintf
    {|
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  int *p = (int*)0x%04X;
  api_read_accel(p, 1);
}
|}
    t.t_os_slot

let src_gate_deputy_read t =
  Printf.sprintf
    {|
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  char *p = (char*)0x%04X;
  api_log_append(p, 8);
}
|}
    t.t_victim_canary

let src_jump_os t =
  Printf.sprintf
    {|
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  int (*f)(int) = (int (*)(int))0x%04X;
  f(arg);
}
|}
    t.t_os_entry

let src_mpu_tamper _ =
  Printf.sprintf
    {|
void handle_init(int arg) { api_set_timer(50); }
void handle_timer(int arg) {
  int *p = (int*)0x%04X;
  *p = 0xA500;
}
|}
    Mpu.ctl0_addr

(* ------------------------------------------------------------------ *)
(* Binary payload building blocks                                      *)

let mov_imm_abs v a = O.Fmt1 (O.MOV, Amulet_mcu.Word.W16, O.S_immediate v, O.D_absolute a)
let mov_abs_reg a r = O.Fmt1 (O.MOV, Amulet_mcu.Word.W16, O.S_absolute a, O.D_reg r)
let br_imm a = O.Fmt1 (O.MOV, Amulet_mcu.Word.W16, O.S_immediate a, O.D_reg 0)
let ret = O.Fmt1 (O.MOV, Amulet_mcu.Word.W16, O.S_indirect_inc 1, O.D_reg 0)

(* ------------------------------------------------------------------ *)
(* Expectation helpers                                                 *)

(* Pointer attacks written in WearC: Feature-Limited refuses the
   source; the checked modes differ in which layer fires. *)
let src_expect ~none ~sw ~mpu = function
  | Iso.No_isolation -> none
  | Iso.Feature_limited -> L_build
  | Iso.Software_only -> sw
  | Iso.Mpu_assisted -> mpu

(* Binary attacks bypass the compiler entirely: only the MPU (at run
   time) or the SFI verifier (statically) can stop them. *)
let bin_expect ~none ~fl ~sw ~mpu = function
  | Iso.No_isolation -> none
  | Iso.Feature_limited -> fl
  | Iso.Software_only -> sw
  | Iso.Mpu_assisted -> mpu

let lint_any _ = Either

(* Unguarded accesses outside the app's own sections must fail the
   binary verifier in every mode that promises isolation. *)
let lint_bin_reject = function
  | Iso.No_isolation -> Either
  | Iso.Feature_limited | Iso.Software_only | Iso.Mpu_assisted -> Must_reject

let source ~name ~descr ?(position = First) ~source ~target ~expect
    ?(lint = lint_any) () =
  {
    atk_name = name;
    atk_level = Source;
    atk_descr = descr;
    atk_position = position;
    atk_source = Some source;
    atk_payload = None;
    atk_target = target;
    atk_expect = expect;
    atk_lint = lint;
  }

let binary ~name ~descr ~payload ~target ~expect ?(lint = lint_bin_reject) ()
    =
  {
    atk_name = name;
    atk_level = Binary;
    atk_descr = descr;
    atk_position = First;
    atk_source = None;
    atk_payload = Some payload;
    atk_target = target;
    atk_expect = expect;
    atk_lint = lint;
  }

let no_target _ = None

(* ------------------------------------------------------------------ *)
(* The corpus                                                          *)

let corpus =
  [
    (* --- source-level data-pointer attacks ------------------------- *)
    source ~name:"src_wild_write_os"
      ~descr:"wild data pointer write into an OS kernel slot"
      ~source:(fun t -> src_wild_write t.t_os_slot)
      ~target:(fun t -> Some t.t_os_slot)
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_guard)
      ();
    source ~name:"src_wild_read_os"
      ~descr:"wild data pointer read of an OS kernel slot"
      ~source:(fun t -> src_wild_read t.t_os_slot)
      ~target:no_target
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_guard)
      ();
    source ~name:"src_wild_write_victim"
      ~descr:"wild write into the next app's data (above the attacker)"
      ~position:First
      ~source:(fun t -> src_wild_write t.t_victim_canary)
      ~target:(fun t -> Some t.t_victim_canary)
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_mpu)
      ();
    source ~name:"src_wild_read_victim"
      ~descr:"wild read of the next app's data (above the attacker)"
      ~position:First
      ~source:(fun t -> src_wild_read t.t_victim_canary)
      ~target:no_target
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_mpu)
      ();
    source ~name:"src_wild_write_lower"
      ~descr:"wild write into a lower app's data (below the attacker)"
      ~position:Last
      ~source:(fun t -> src_wild_write t.t_victim_canary)
      ~target:(fun t -> Some t.t_victim_canary)
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_guard)
      ();
    source ~name:"src_stack_smash"
      ~descr:"unbounded recursion overflowing into the neighbour below"
      ~position:Last ~source:src_stack_smash ~target:no_target
      ~expect:(src_expect ~none:L_kernel ~sw:L_none ~mpu:L_mpu)
      ();
    (* --- confused-deputy gate attacks ------------------------------ *)
    source ~name:"src_gate_deputy_write"
      ~descr:"OS address passed as a gate out-pointer (api_read_accel)"
      ~source:src_gate_deputy_write ~target:no_target
      ~expect:(src_expect ~none:L_gate ~sw:L_gate ~mpu:L_gate)
      ();
    source ~name:"src_gate_deputy_read"
      ~descr:"victim address passed as a gate in-pointer (api_log_append)"
      ~source:src_gate_deputy_read ~target:no_target
      ~expect:(src_expect ~none:L_gate ~sw:L_gate ~mpu:L_gate)
      ();
    (* --- control-flow attacks -------------------------------------- *)
    source ~name:"src_jump_os"
      ~descr:"function-pointer call into OS code"
      ~source:src_jump_os ~target:no_target
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_guard)
      ();
    (* --- MPU tampering and boundary probing ------------------------ *)
    source ~name:"src_mpu_tamper"
      ~descr:"data pointer write to MPUCTL0 (disable with password)"
      ~source:src_mpu_tamper ~target:no_target
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_guard)
      ();
    source ~name:"src_wild_write_vectors"
      ~descr:"wild write into the interrupt-vector page (above MPU coverage)"
      ~source:(fun _ -> src_wild_write vector_slot)
      ~target:(fun _ -> Some vector_slot)
      ~expect:(src_expect ~none:L_none ~sw:L_guard ~mpu:L_none)
      ();
    source ~name:"src_probe_slack"
      ~descr:"write to the last word below the app's own data_limit"
      ~source:(fun t -> src_probe_slack_src t.t_self_slack)
      ~target:(fun t -> Some t.t_self_slack)
      ~expect:(src_expect ~none:L_harmless ~sw:L_harmless ~mpu:L_harmless)
      ();
    (* --- binary-level attacks (post-AFT patched payloads) ---------- *)
    binary ~name:"bin_wild_write_os"
      ~descr:"unguarded store into an OS kernel slot"
      ~payload:(fun t -> [ mov_imm_abs attack_value t.t_os_slot; ret ])
      ~target:(fun t -> Some t.t_os_slot)
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_mpu)
      ();
    binary ~name:"bin_wild_read_os"
      ~descr:"unguarded load of an OS kernel slot"
      ~payload:(fun t -> [ mov_abs_reg t.t_os_slot 12; ret ])
      ~target:no_target
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_mpu)
      ();
    binary ~name:"bin_wild_write_victim"
      ~descr:"unguarded store into the next app's canary"
      ~payload:(fun t -> [ mov_imm_abs attack_value t.t_victim_canary; ret ])
      ~target:(fun t -> Some t.t_victim_canary)
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_mpu)
      ();
    binary ~name:"bin_wild_write_sram"
      ~descr:"store into the SRAM OS stack (never MPU-protected)"
      ~payload:(fun t -> [ mov_imm_abs attack_value t.t_sram; ret ])
      ~target:(fun t -> Some t.t_sram)
      ~expect:
        (bin_expect ~none:L_harmless ~fl:L_harmless ~sw:L_none ~mpu:L_none)
      ();
    binary ~name:"bin_mpu_disable"
      ~descr:"disable the MPU with the known password, then hit the OS"
      ~payload:(fun t ->
        [
          mov_imm_abs 0xA500 Mpu.ctl0_addr;
          mov_imm_abs attack_value t.t_os_slot;
          ret;
        ])
      ~target:(fun t -> Some t.t_os_slot)
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_none)
      ();
    binary ~name:"bin_mpu_rebound"
      ~descr:"widen MPUSEGB2 over the victim, then write its canary"
      ~payload:(fun t ->
        [
          mov_imm_abs (t.t_victim_limit lsr 4) Mpu.segb2_addr;
          mov_imm_abs attack_value t.t_victim_canary;
          ret;
        ])
      ~target:(fun t -> Some t.t_victim_canary)
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_none)
      ();
    binary ~name:"bin_jump_os_entry"
      ~descr:"branch straight into OS code (execute-only under the MPU)"
      ~payload:(fun t -> [ br_imm t.t_os_entry ])
      ~target:no_target
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_none)
      ();
    binary ~name:"bin_jump_victim_code"
      ~descr:"branch into the victim's handler code"
      ~payload:(fun t -> [ br_imm t.t_victim_entry ])
      ~target:no_target
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_mpu)
      ();
    binary ~name:"bin_probe_below"
      ~descr:"store 2 bytes below the data segment base (own code)"
      ~payload:(fun t -> [ mov_imm_abs attack_value t.t_self_below; ret ])
      ~target:(fun t -> Some t.t_self_below)
      ~expect:(bin_expect ~none:L_none ~fl:L_none ~sw:L_none ~mpu:L_mpu)
      ();
    binary ~name:"bin_probe_slack"
      ~descr:"store into the app's own slack bytes (inside B2)"
      ~payload:(fun t -> [ mov_imm_abs attack_value t.t_self_slack; ret ])
      ~target:(fun t -> Some t.t_self_slack)
      ~expect:
        (bin_expect ~none:L_harmless ~fl:L_harmless ~sw:L_harmless
           ~mpu:L_harmless)
      ~lint:lint_any ();
  ]

let find name = List.find (fun a -> a.atk_name = name) corpus

(* ------------------------------------------------------------------ *)
(* Target resolution                                                   *)

let app_layout fw name = (Aft.find_app fw name).Aft.ab_layout

let resolve_targets fw ~attacker =
  let image = fw.Aft.fw_image in
  let vic = app_layout fw "victim" in
  let atk = app_layout fw attacker in
  {
    t_os_slot = Image.symbol image "__os_sp_save";
    t_os_entry = Image.symbol image "__os_start";
    t_victim_canary = Image.symbol image (Iso.mangle ~prefix:"victim" "canary");
    t_victim_entry =
      (match Aft.handler_addr (Aft.find_app fw "victim") "handle_button" with
      | Some a -> a
      | None -> failwith "victim lacks handle_button");
    t_victim_limit = vic.Layout.data_limit;
    t_sram = Map.sram_start + 0x200;
    t_self_below = atk.Layout.data_base - 2;
    t_self_slack = atk.Layout.data_limit - 2;
  }

(* ------------------------------------------------------------------ *)
(* Cell construction                                                   *)

type built =
  | Rejected of string
  | Built of {
      fw : Aft.firmware;
      attacker : string;
      victim : string;
      targets : targets;
    }

let victim_spec mode = Suite.spec_for mode Suite.security_victim
let carrier_spec mode = Suite.spec_for mode Suite.security_carrier

(* What the cells of one mode share.  The compiled victim and carrier
   and the OS of each source-cell order are made the first time a cell
   needs them, under [b_lock] (cells of one base may run on parallel
   domains), so a base makes only what its cells use: a source cell the
   compiler rejects makes nothing.  [b_carrier] is the benign
   carrier+victim build every binary attack of the mode patches, with
   the targets resolved on it. *)
type base = {
  b_mode : Iso.mode;
  b_lock : Mutex.t;
  b_victim : Aft.compiled Lazy.t;
  b_carrier_app : Aft.compiled Lazy.t;
  b_os_first : Aft.os Lazy.t;  (** [attacker; victim] *)
  b_os_last : Aft.os Lazy.t;  (** [victim; attacker] *)
  b_carrier : (Aft.firmware * targets) option;
}

let force b part = Mutex.protect b.b_lock (fun () -> Lazy.force part)

(* The placeholder phase only fixes the layout and resolves the
   targets, so it skips certification: that appends [cert.gates.*]
   notes after linking and moves nothing.  Each phase compiles the
   attacker alone and links it with the base's victim and OS. *)
let build_source b ~attack gen =
  let attacker = "attacker" in
  let link ~certify targets =
    let app =
      Aft.compile ~mode:b.b_mode { Aft.name = attacker; source = gen targets }
    in
    let victim = force b b.b_victim in
    match attack.atk_position with
    | First -> Aft.link ~certify (force b b.b_os_first) [ app; victim ]
    | Last -> Aft.link ~certify (force b b.b_os_last) [ victim; app ]
  in
  match link ~certify:false placeholder_targets with
  | exception Aft.Source_error { msg; _ } -> Rejected msg
  | exception Aft.Build_error msg -> Rejected msg
  | fw_a ->
    let targets = resolve_targets fw_a ~attacker in
    let fw = link ~certify:true targets in
    let la = app_layout fw_a attacker and lb = app_layout fw attacker in
    if
      la.Layout.code_base <> lb.Layout.code_base
      || la.Layout.data_base <> lb.Layout.data_base
      || la.Layout.data_limit <> lb.Layout.data_limit
    then
      failwith
        (Printf.sprintf "%s: layout shifted between build phases"
           attack.atk_name);
    Built { fw; attacker; victim = "victim"; targets }

(* Copies only the chunk it patches; the others stay shared with
   [image], which is never written. *)
let patch_words image ~addr words =
  let patched = ref false in
  let chunks =
    List.map
      (fun (base, b) ->
        if addr >= base && addr + (2 * List.length words) <= base + Bytes.length b
        then begin
          patched := true;
          let b = Bytes.copy b in
          List.iteri
            (fun i w ->
              let off = addr - base + (2 * i) in
              Bytes.set b off (Char.chr (w land 0xFF));
              Bytes.set b (off + 1) (Char.chr ((w lsr 8) land 0xFF)))
            words;
          (base, b)
        end
        else (base, b))
      image.Image.chunks
  in
  if not !patched then failwith "patch_words: address outside image chunks";
  Image.with_chunks image chunks

let build_binary ~attack (fw, targets) payload =
  let attacker = "carrier" in
  let haddr =
    match Aft.handler_addr (Aft.find_app fw attacker) "handle_timer" with
    | Some a -> a
    | None -> failwith "carrier lacks handle_timer"
  in
  let words =
    List.concat_map (fun op -> Amulet_mcu.Encode.encode op) (payload targets)
  in
  (* the payload must stay inside the carrier's handler body *)
  (match Image.span fw.Aft.fw_image (Iso.mangle ~prefix:attacker "handle_timer") with
  | Some (lo, hi) when haddr = lo && haddr + (2 * List.length words) <= hi ->
    ()
  | Some _ | None ->
    failwith
      (Printf.sprintf "%s: payload does not fit the carrier handler"
         attack.atk_name));
  let image = patch_words fw.Aft.fw_image ~addr:haddr words in
  Built
    {
      fw = { fw with Aft.fw_image = image };
      attacker;
      victim = "victim";
      targets;
    }

let base mode attacks =
  let victim = lazy (Aft.compile ~mode (victim_spec mode)) in
  let carrier = lazy (Aft.compile ~mode (carrier_spec mode)) in
  let carrier_fw () =
    let fw =
      Aft.link
        (Aft.os ~mode [ "carrier"; "victim" ])
        [ Lazy.force carrier; Lazy.force victim ]
    in
    (fw, resolve_targets fw ~attacker:"carrier")
  in
  {
    b_mode = mode;
    b_lock = Mutex.create ();
    b_victim = victim;
    b_carrier_app = carrier;
    b_os_first = lazy (Aft.os ~mode [ "attacker"; "victim" ]);
    b_os_last = lazy (Aft.os ~mode [ "victim"; "attacker" ]);
    b_carrier =
      (if List.exists (fun a -> a.atk_level = Binary) attacks then
         Some (carrier_fw ())
       else None);
  }

let base_firmware b = Option.map fst b.b_carrier
let base_apps b = (force b b.b_victim, force b b.b_carrier_app)

let build_on b ~attack =
  match (attack.atk_source, attack.atk_payload, b.b_carrier) with
  | Some gen, _, _ -> build_source b ~attack gen
  | None, Some payload, Some carrier -> build_binary ~attack carrier payload
  | None, Some _, None ->
    invalid_arg
      (Printf.sprintf "Attacks.build_on: %s is binary, the base has no carrier"
         attack.atk_name)
  | None, None, _ -> assert false

let build_cell ~attack ~mode = build_on (base mode [ attack ]) ~attack
