(* Histogram properties: quantiles against an exact-sort oracle,
   lossless associative/commutative merge, and exact bookkeeping of
   count/sum/min/max. *)

module Hist = Amulet_obs.Hist

let of_list xs =
  let h = Hist.create () in
  List.iter (Hist.record h) xs;
  h

(* Mixed magnitudes: unit buckets (< 64), mid-range, and large values
   where the log-bucket approximation actually kicks in. *)
let gen_value =
  QCheck.Gen.(
    oneof
      [
        int_bound 63;
        int_bound 10_000;
        map (fun x -> x * 1_000) (int_bound 1_000_000);
      ])

let arb_values =
  QCheck.make
    ~print:(fun xs -> String.concat ";" (List.map string_of_int xs))
    QCheck.Gen.(list_size (1 -- 300) gen_value)

let quantile_points = [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]

(* The histogram answers with a bucket midpoint; buckets above the
   linear range are at most 1/32 of their lower bound wide, so the
   answer is within value/32 of the exact order statistic (and exact
   below 64).  Assert the looser value/8 + 1. *)
let prop_quantile_oracle =
  QCheck.Test.make ~count:300 ~name:"quantile matches exact-sort oracle"
    arb_values (fun xs ->
      let h = of_list xs in
      let arr = Array.of_list (List.sort compare xs) in
      let n = Array.length arr in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = arr.(rank - 1) in
          let got = Hist.quantile h q in
          abs (got - exact) <= (exact / 8) + 1)
        quantile_points)

let prop_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"merge is commutative"
    (QCheck.pair arb_values arb_values) (fun (xs, ys) ->
      let a = of_list xs and b = of_list ys in
      Hist.equal (Hist.merge a b) (Hist.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~count:200 ~name:"merge is associative"
    (QCheck.triple arb_values arb_values arb_values) (fun (xs, ys, zs) ->
      let a = of_list xs and b = of_list ys and c = of_list zs in
      Hist.equal
        (Hist.merge (Hist.merge a b) c)
        (Hist.merge a (Hist.merge b c)))

(* Lossless: merging two shards is indistinguishable from having
   recorded the combined stream into one histogram. *)
let prop_merge_lossless =
  QCheck.Test.make ~count:200 ~name:"merge = histogram of concatenation"
    (QCheck.pair arb_values arb_values) (fun (xs, ys) ->
      Hist.equal (of_list (xs @ ys)) (Hist.merge (of_list xs) (of_list ys)))

let prop_exact_stats =
  QCheck.Test.make ~count:200 ~name:"count/sum/min/max are exact" arb_values
    (fun xs ->
      let h = of_list xs in
      Hist.count h = List.length xs
      && Hist.sum h = List.fold_left ( + ) 0 xs
      && Hist.min_value h = List.fold_left min max_int xs
      && Hist.max_value h = List.fold_left max 0 xs)

let test_empty () =
  let h = Hist.create () in
  Alcotest.(check bool) "fresh is empty" true (Hist.is_empty h);
  Alcotest.(check int) "quantile of empty" 0 (Hist.quantile h 0.5);
  Alcotest.(check bool)
    "merging empties stays empty" true
    (Hist.is_empty (Hist.merge h (Hist.create ())))

let test_record_n () =
  let a = Hist.create () and b = Hist.create () in
  Hist.record_n a 1000 ~n:5;
  for _ = 1 to 5 do
    Hist.record b 1000
  done;
  Alcotest.(check bool) "record_n = repeated record" true (Hist.equal a b)

let test_small_values_exact () =
  (* below the linear limit every value has its own bucket *)
  let h = of_list [ 3; 3; 7; 12; 60 ] in
  Alcotest.(check int) "p50 exact" 7 (Hist.quantile h 0.5);
  Alcotest.(check int) "p100 exact" 60 (Hist.quantile h 1.0);
  Alcotest.(check int) "p1 exact" 3 (Hist.quantile h 0.01)

(* q = 0.0 and q = 1.0 must pin to the extreme samples, including for
   large values where bucketing is lossy: the histogram keeps exact
   min/max alongside the buckets, so the endpoints must not drift to a
   bucket midpoint. *)
let test_quantile_endpoints () =
  let h = of_list [ 5; 123_456; 999_999_937 ] in
  Alcotest.(check int) "q=0.0 is the minimum" (Hist.min_value h)
    (Hist.quantile h 0.0);
  Alcotest.(check int) "q=1.0 is the maximum" (Hist.max_value h)
    (Hist.quantile h 1.0);
  Alcotest.(check int) "q=0.0 exact" 5 (Hist.quantile h 0.0);
  Alcotest.(check int) "q=1.0 exact" 999_999_937 (Hist.quantile h 1.0)

let test_merge_with_empty () =
  let h = of_list [ 42; 7; 100_000 ] in
  let e = Hist.create () in
  Alcotest.(check bool) "h ∪ ∅ = h" true (Hist.equal h (Hist.merge h e));
  Alcotest.(check bool) "∅ ∪ h = h" true (Hist.equal h (Hist.merge e h));
  (* merge must not mutate its arguments *)
  Alcotest.(check bool) "∅ untouched by merge" true (Hist.is_empty e);
  Alcotest.(check int) "h untouched by merge" 3 (Hist.count h)

let test_single_sample () =
  let h = of_list [ 77_000 ] in
  Alcotest.(check int) "count" 1 (Hist.count h);
  Alcotest.(check int) "sum" 77_000 (Hist.sum h);
  Alcotest.(check int) "min = the sample" 77_000 (Hist.min_value h);
  Alcotest.(check int) "max = the sample" 77_000 (Hist.max_value h);
  (* every quantile of a one-sample distribution is that sample up to
     bucket resolution; the endpoints are exact *)
  Alcotest.(check int) "q=0.0" 77_000 (Hist.quantile h 0.0);
  Alcotest.(check int) "q=1.0" 77_000 (Hist.quantile h 1.0);
  let p50 = Hist.quantile h 0.5 in
  Alcotest.(check bool) "p50 within bucket width" true
    (abs (p50 - 77_000) <= (77_000 / 8) + 1);
  let a = of_list [ 9 ] and b = of_list [ 9 ] in
  Alcotest.(check bool) "two singletons merge losslessly" true
    (Hist.equal (of_list [ 9; 9 ]) (Hist.merge a b))

let () =
  let q = Test_support.Seed.to_alcotest in
  Alcotest.run "hist"
    [
      ( "properties",
        [
          q prop_quantile_oracle;
          q prop_merge_commutative;
          q prop_merge_associative;
          q prop_merge_lossless;
          q prop_exact_stats;
        ] );
      ( "units",
        [
          Alcotest.test_case "empty histogram" `Quick test_empty;
          Alcotest.test_case "record_n" `Quick test_record_n;
          Alcotest.test_case "small values exact" `Quick
            test_small_values_exact;
          Alcotest.test_case "quantile endpoints" `Quick
            test_quantile_endpoints;
          Alcotest.test_case "merge with empty" `Quick test_merge_with_empty;
          Alcotest.test_case "single sample" `Quick test_single_sample;
        ] );
    ]
