(* The [amulet] executable's command-line contract, one table row per
   invocation: a success and a bad-input case for every subcommand, the
   failed checks that must exit 1, regressions for inputs that used to
   crash or pass vacuously, and the EXIT STATUS section of every help
   page.  The policy under test: 0 success, 1 a check the command
   performs failed, 2 an unreadable, unparsable or unbuildable input,
   124 command-line misuse. *)

(* Under [dune runtest] the cwd is the test directory of the build
   tree, which also holds the sources the rule depends on.  From the
   project root ([dune exec test/test_cli.exe]) the executable is in
   the build tree and the sources are in the source tree. *)
let build, src =
  if Sys.file_exists "../bin/amulet.exe" then ("..", "..")
  else ("_build/default", ".")

let exe = Filename.concat build "bin/amulet.exe"
let example f = Filename.concat src ("examples/wearc/" ^ f)
let steady = Filename.concat src "examples/scenarios/steady_day.fleet"

let run args =
  let out = Filename.temp_file "amulet" ".out" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:out args)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let dir =
  let d = Filename.temp_file "amulet_cli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d);
  d

let fixture name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

(* a file name outside [a-z0-9_]: the app is named blink_counter *)
let blink_dash =
  fixture "blink-counter.c"
    (In_channel.with_open_bin (example "blink_counter.c") In_channel.input_all)

(* a store below the app's data segment: a guard fault disables the
   app at its first dispatch *)
let wild =
  fixture "wild.c"
    "void handle_init(int arg) {\n  int *p = (int *)0x1C00;\n  *p = 1;\n}\n"

(* a user function whose name starts with api_ but names no OS service:
   a plain call, not a gate *)
let api_helper =
  fixture "api_helper.c"
    "int api_helper(int x) { return x + 1; }\n\
     void handle_init(int arg) { api_helper(arg); }\n"

let bad_syntax = fixture "bad.c" "void handle_init(int arg) { int x = ; }\n"

let dup_fn =
  fixture "dupfn.c"
    "int f(int x) { return x; }\nint f(int y) { return y; }\n\
     void handle_init(int a) { f(a); }\n"

let trace =
  let path = Filename.concat dir "trace.json" in
  ignore (run [ "sim"; "-t"; "1"; "--profile"; "--trace"; path; "pedometer" ]);
  path

(* ------------------------------------------------------------------ *)
(* The table: subcommand group, case name, expected exit, substrings of
   the combined stdout+stderr, arguments *)

let row group name code ?(expect = []) args = (group, name, code, expect, args)

let clean_lint (f, mode) =
  row "lint"
    (Printf.sprintf "%s clean (%s)" f mode)
    0
    ~expect:[ "\"errors\":0"; "\"warnings\":0" ]
    [ "lint"; "--format"; "json"; "-m"; mode; example f ]

let help sub =
  row "help" (String.concat " " sub) 0
    ~expect:[ "EXIT STATUS"; "unreadable, unparsable or unbuildable" ]
    (sub @ [ "--help=plain" ])

let table =
  [
    row "cc" "example" 0 ~expect:[ "app step_goal:" ]
      [ "cc"; "-m"; "mpu"; example "step_goal.c" ];
    row "cc" "source path names the app" 0 ~expect:[ "app blink_counter:" ]
      [ "cc"; blink_dash ];
    row "cc" "same app name twice" 2 ~expect:[ "duplicate app names" ]
      [ "cc"; blink_dash; example "blink_counter.c" ];
    row "cc" "syntax error" 2 ~expect:[ "error at line 1" ]
      [ "cc"; bad_syntax ];
    row "cc" "error names its source" 2
      ~expect:[ "dupfn.c: error at line 2, col 1: redefinition of 'f'" ]
      [ "cc"; "-m"; "mpu"; example "step_goal.c"; dup_fn ];
    row "cc" "missing source" 2 ~expect:[ "missing.c" ] [ "cc"; "missing.c" ];
    row "cc" "unknown mode" 124 [ "cc"; "-m"; "bogus"; "pedometer" ];
    row "sim" "suite app" 0 ~expect:[ "mode mpu" ]
      [ "sim"; "-t"; "1"; "pedometer" ];
    row "sim" "source path names the app" 0 ~expect:[ "app blink_counter" ]
      [ "sim"; "-t"; "1"; blink_dash ];
    row "sim" "unrecovered fault" 1 ~expect:[ "unrecovered fault: app wild" ]
      [ "sim"; "-t"; "1"; wild ];
    row "sim" "user function named api_*" 0 ~expect:[ "app api_helper" ]
      [ "sim"; "-t"; "1"; api_helper ];
    row "sim" "missing source" 2 [ "sim"; "missing.c" ];
    row "objdump" "--cfg on an example" 0
      ~expect:[ "blink_counter$handle_timer"; "cycles" ]
      [ "objdump"; "--cfg"; "-m"; "mpu"; example "blink_counter.c" ];
    row "objdump" "--cfg --format json" 0 ~expect:[ "\"functions\":" ]
      [ "objdump"; "--cfg"; "--format"; "json"; "pedometer" ];
    row "objdump" "source path names the app" 0 ~expect:[ "blink_counter code" ]
      [ "objdump"; blink_dash ];
    row "objdump" "json without --cfg" 2 ~expect:[ "--cfg" ]
      [ "objdump"; "--format"; "json"; "pedometer" ];
  ]
  @ List.map clean_lint
      [
        ("blink_counter.c", "software"); ("blink_counter.c", "mpu");
        ("step_goal.c", "software"); ("step_goal.c", "mpu");
      ]
  @ [
      row "lint" "source path names the app" 0 [ "lint"; blink_dash ];
      row "lint" "stackcert error" 1 ~expect:[ "stackcert" ]
        [ "lint"; "-m"; "software"; "quicksort" ];
      row "lint" "zero apps rejected" 124 [ "lint" ];
      row "lint" "missing source" 2 [ "lint"; "missing.c" ];
      row "wcet" "example" 0 [ "wcet"; example "step_goal.c" ];
      row "wcet" "source path names the app" 0 [ "wcet"; blink_dash ];
      row "wcet" "unbounded handler" 1 ~expect:[ "unbounded" ]
        [ "wcet"; "quicksort" ];
      row "wcet" "missing source" 2 [ "wcet"; "missing.c" ];
      row "prove" "mpu obligations" 0 ~expect:[ "all obligations discharged" ]
        [ "prove"; "-m"; "mpu"; "--no-crosscheck" ];
      row "prove" "json report" 0 ~expect:[ "\"ok\":true" ]
        [ "prove"; "-m"; "mpu"; "--no-crosscheck"; "--format"; "json" ];
      row "prove" "k-max 0 leaves unknowns" 1 ~expect:[ "UNKNOWN" ]
        [ "prove"; "-m"; "mpu"; "--no-crosscheck"; "--k-max"; "0" ];
      row "prove" "list has no json form" 2
        [ "prove"; "--list"; "--format"; "json" ];
      row "attack" "one quick cell" 0
        [ "attack"; "--quick"; "--only"; "src_stack_smash"; "-m"; "mpu" ];
      row "attack" "unknown attack" 2 ~expect:[ "src_stack_smash" ]
        [ "attack"; "--quick"; "--only"; "nope" ];
      row "attack" "zero cells" 2 ~expect:[ "zero cells" ]
        [ "attack"; "--quick"; "--only"; "src_wild_read_os" ];
      row "attack" "negative jobs" 124 [ "attack"; "--jobs=-1" ];
      row "attack" "repeated mode counts once" 0
        ~expect:[ "\n  mpu                    24 "; "\n8 cells: 0 mismatches" ]
        [ "attack"; "--quick"; "-m"; "mpu"; "-m"; "mpu" ];
      row "fleet" "small fleet" 0 ~expect:[ "isolation oracle: clean (4" ]
        [ "fleet"; steady; "--devices"; "4"; "--duration-ms"; "100" ];
      row "fleet" "negative devices" 2 ~expect:[ "devices: must be >= 1" ]
        [ "fleet"; steady; "--devices=-3" ];
      row "fleet" "zero devices" 2 ~expect:[ "devices: must be >= 1" ]
        [ "fleet"; steady; "--devices=0" ];
      row "fleet" "negative duration" 2 ~expect:[ "duration: must be >= 1 ms" ]
        [ "fleet"; steady; "--duration-ms=-5" ];
      row "fleet" "missing scenario" 2 [ "fleet"; "missing.fleet" ];
      row "fleet" "negative jobs" 124 [ "fleet"; steady; "--jobs=-1" ];
      row "fleet" "negative scaling jobs" 124
        [ "fleet"; steady; "--scaling"; "1,-2" ];
      row "prof" "report" 0 ~expect:[ "handle_accel" ]
        [ "prof"; "report"; trace ];
      row "prof" "energy" 0 ~expect:[ "energy attribution" ]
        [ "prof"; "energy"; trace ];
      row "prof" "arp" 0 ~expect:[ "ARP report for" ]
        [ "prof"; "arp"; "--warmup"; "1000"; "clock" ];
      row "prof" "missing trace" 2 [ "prof"; "report"; "missing.json" ];
      row "prof" "malformed trace" 2 ~expect:[ "malformed" ]
        [ "prof"; "energy"; wild ];
      row "prof" "unknown app" 2 ~expect:[ "known: " ]
        [ "prof"; "arp"; "nope" ];
    ]
  @ List.map help
      [
        [ "cc" ]; [ "sim" ]; [ "objdump" ]; [ "lint" ]; [ "wcet" ]; [ "prove" ];
        [ "attack" ]; [ "fleet" ]; [ "prof"; "report" ]; [ "prof"; "energy" ];
        [ "prof"; "arp" ];
      ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check (_, _, code, expect, args) () =
  let got, out = run args in
  let cmd = String.concat " " ("amulet" :: args) in
  if got <> code then
    Alcotest.failf "%s: exit %d, expected %d\n%s" cmd got code out;
  List.iter
    (fun s ->
      if not (contains out s) then
        Alcotest.failf "%s: output lacks %S\n%s" cmd s out)
    expect

let () =
  let groups =
    List.sort_uniq compare (List.map (fun (g, _, _, _, _) -> g) table)
  in
  Alcotest.run "cli"
    (List.map
       (fun g ->
         ( g,
           List.filter_map
             (fun ((g', name, _, _, _) as r) ->
               if g' = g then Some (Alcotest.test_case name `Quick (check r))
               else None)
             table ))
       groups)
