(* Quickstart: compile a tiny wearable app with the AFT, boot it on
   the simulated MSP430 under MPU-assisted isolation, and watch it
   run.

     dune exec examples/quickstart.exe *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Iso = Amulet_cc.Isolation

(* A WearC application: ordinary C with pointers — which the original
   Amulet platform had to forbid, and this system makes safe. *)
let hello_app =
  {|
int ticks = 0;
int history[8];

void record(int *slot, int value) { *slot = value; }

void handle_init(int arg) {
  api_display_write("hello amulet", 0);
  api_set_timer(1000);
}

void handle_timer(int arg) {
  record(&history[ticks & 7], api_get_battery());
  ticks += 1;
}
|}

let () =
  (* 1. The AFT compiles the app, inserts the isolation checks, lays
     out memory per the paper's Fig. 1, and links a firmware image. *)
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "hello"; source = hello_app } ]
  in
  Format.printf "firmware built: %d bytes@."
    (Amulet_link.Image.total_bytes fw.Aft.fw_image);
  Format.printf "%a@." Amulet_aft.Layout.pp fw.Aft.fw_layout;

  (* 2. Boot the kernel model and run five virtual seconds. *)
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking fw in
  let records = Os.Kernel.run_for_ms k 5_000 in
  Format.printf "dispatched %d events in 5 virtual seconds@."
    (List.length records);

  (* 3. Inspect the results. *)
  Format.printf "display line 0: %S@." (Os.Kernel.display_line k 0);
  let app = Os.Kernel.app_by_name k "hello" in
  let stats = Os.Kernel.handler_stats app records in
  (match List.assoc_opt "handle_timer" stats with
  | Some s ->
    Format.printf "handle_timer ran %d times, avg %d cycles per event@."
      s.Os.Kernel.hs_count
      (s.Os.Kernel.hs_cycles / max 1 s.Os.Kernel.hs_count)
  | None -> ());

  (* 4. The same pointers that make the app pleasant to write are
     confined: a stray write above the app's segment trips the MPU. *)
  let evil =
    {|
void handle_init(int arg) {
  int *p = (int*)0xF000;
  *p = 666;
}
|}
  in
  let fw2 =
    Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "stray"; source = evil } ]
  in
  let k2 = Os.Kernel.create fw2 in
  let _ = Os.Kernel.run_for_ms k2 100 in
  let bad = Os.Kernel.app_by_name k2 "stray" in
  Format.printf "@.stray app enabled after its first event: %b@."
    bad.Os.Kernel.enabled;
  match bad.Os.Kernel.last_fault with
  | Some f -> Format.printf "caught: %s@." f
  | None -> Format.printf "(no fault?!)@."
