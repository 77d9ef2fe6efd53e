(* amulet: the toolchain's one executable.  Each subcommand lives in
   its own module; the front end they share — input resolution, the
   common options, the exception guard and the exit policy — is
   [Cli]. *)

let () =
  exit
    (Cmdliner.Cmd.eval'
       (Cli.group "amulet"
          ~doc:"build, check, run and profile Amulet firmware"
          [
            Cc_cmd.cmd;
            Sim_cmd.cmd;
            Objdump_cmd.cmd;
            Lint_cmd.cmd;
            Wcet_cmd.cmd;
            Prove_cmd.cmd;
            Attack_cmd.cmd;
            Fleet_cmd.cmd;
            Prof_cmd.cmd;
          ]))
