(* Fault injection: a rogue's gallery of memory-safety attacks, each
   run under all four isolation methods.  Prints which method stops
   which attack — the paper's security story in one table.

     dune exec examples/fault_injection.exe *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Iso = Amulet_cc.Isolation

(* Each attack is a WearC app whose handle_button performs the attack;
   [needs_pointers] excludes it from feature-limited mode (whose whole
   point is that such code cannot be written at all). *)
type attack = { title : string; source : string; needs_pointers : bool }

let attacks =
  [
    {
      title = "write above own segment (other apps)";
      needs_pointers = true;
      source =
        {|
void handle_button(int arg) { int *p = (int*)0xF400; *p = 1; }
|};
    };
    {
      title = "read below own segment (OS data)";
      needs_pointers = true;
      source =
        {|
int sink;
void handle_button(int arg) { int *p = (int*)0x5000; sink = *p; }
|};
    };
    {
      title = "overwrite MPU registers";
      needs_pointers = true;
      source =
        {|
void handle_button(int arg) { int *p = (int*)0x05A0; *p = 0xA500; }
|};
    };
    {
      title = "function pointer into OS code";
      needs_pointers = true;
      source =
        {|
void handle_button(int arg) {
  void (*f)(void) = (void(*)(void))0x4400;
  f();
}
|};
    };
    {
      title = "stack smash via array overflow";
      needs_pointers = false;
      source =
        {|
int n = 40;
void smash() {
  int a[2];
  int i;
  for (i = 0; i < n; i++) a[i] = 0x5400;
}
void handle_button(int arg) { smash(); }
|};
    };
    {
      title = "unbounded recursion (stack overflow)";
      needs_pointers = false;
      source =
        {|
int deep(int x) {
  int pad[16];
  pad[0] = x;
  if (x < 30000) return deep(x + 1) + pad[0];
  return 0;
}
void handle_button(int arg) { deep(0); }
|};
    };
  ]

let outcome_of mode attack =
  if
    attack.needs_pointers && not (Iso.allows_pointers mode)
    || (String.length attack.title >= 9
        && String.sub attack.title 0 9 = "unbounded"
        && not (Iso.allows_recursion mode))
  then `Rejected_at_compile_time
  else
    match
      Aft.build ~mode [ { Aft.name = "attacker"; source = attack.source } ]
    with
    | exception Aft.Source_error _ -> `Rejected_at_compile_time
    | fw -> (
      let k = Os.Kernel.create fw in
      let _ = Os.Kernel.run_for_ms k 2 in
      Os.Kernel.post k ~delay_ms:1 ~app:0 (Os.Event.Button 1) ~arg:1;
      let _ = Os.Kernel.run_for_ms k 100 in
      let app = Os.Kernel.app_by_name k "attacker" in
      match app.Os.Kernel.last_fault with
      | Some f -> `Caught f
      | None -> `Undetected)

let label = function
  | `Rejected_at_compile_time -> "compile-time reject"
  | `Caught f ->
    let f = if String.length f > 34 then String.sub f 0 34 else f in
    "caught: " ^ f
  | `Undetected -> "NOT DETECTED"

let () =
  Format.printf "Attack outcomes per isolation method@.@.";
  List.iter
    (fun attack ->
      Format.printf "%s@." attack.title;
      List.iter
        (fun mode ->
          Format.printf "  %-18s %s@." (Iso.name mode)
            (label (outcome_of mode attack)))
        Iso.all;
      Format.printf "@.")
    attacks;
  Format.printf
    "(no-isolation is the baseline: attacks are expected to land there)@."
