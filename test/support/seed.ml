(* The seed policy of every QCheck property in the suites.  Each
   property draws from its own RNG seeded from [master_seed], so a
   failure reproduces exactly by re-running its suite with the same
   [QCHECK_SEED], independent of how many cases other properties drew.
   Without [QCHECK_SEED] the seed is 0x5EED, so every run of
   `dune runtest` draws the same cases. *)

let master_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    try int_of_string s
    with _ -> failwith ("QCHECK_SEED is not an integer: " ^ s))
  | None -> 0x5EED

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| master_seed |]) t
