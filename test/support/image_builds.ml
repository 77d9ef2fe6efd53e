(* The firmware builds test/images pins: each suite app alone and five
   app groups, under every mode, with default options, the shadow stack
   and guard elision off (288 builds); and the campaign's cells. *)

module Aft = Amulet_aft.Aft
module Iso = Amulet_cc.Isolation
module Suite = Amulet_apps.Suite
module Attacks = Amulet_sec.Attacks

let groups =
  List.map (fun (a : Suite.app) -> (a.name, [ a ])) Suite.all
  @ [
      ("platform", Suite.platform_apps);
      ("security", Suite.security_apps);
      ("extension", Suite.extension_apps);
      (* the campaign's binary-cell base and its injection pair, which
         the campaign lists itself (today in security's order) *)
      ("carrier+victim", [ Suite.security_carrier; Suite.security_victim ]);
      ("victim+carrier", [ Suite.security_victim; Suite.security_carrier ]);
    ]

let variants =
  [ ("default", true, false); ("shadow", true, true); ("no-elide", false, false) ]

(* [f label mode variant firmware] for every build, in the pinned
   order: group, then mode, then variant. *)
let iter f =
  List.iter
    (fun (label, apps) ->
      List.iter
        (fun mode ->
          List.iter
            (fun (variant, elide, shadow) ->
              f label mode variant
                (Aft.build ~mode ~shadow ~elide
                   (List.map (Suite.spec_for mode) apps)))
            variants)
        Iso.all)
    groups

(* [f mode attack built] for every cell of one
   [Attacks.base mode Attacks.corpus] per mode, mode by mode in corpus
   order: the firmwares the campaign builds, the binary cells' patched
   copies of the carrier firmware included. *)
let iter_cells f =
  List.iter
    (fun mode ->
      let base = Attacks.base mode Attacks.corpus in
      List.iter
        (fun (atk : Attacks.t) -> f mode atk (Attacks.build_on base ~attack:atk))
        Attacks.corpus)
    Iso.all
