(* Power-of-two histogram used for latency tails. *)

module H = Arc_util.Histogram

let check = Alcotest.(check int)

let test_basic () =
  let h = H.create () in
  List.iter (H.record h) [ 1; 2; 3; 100; 1000 ];
  check "count" 5 (H.count h);
  check "max exact" 1000 (H.max_value h)

let test_percentiles_bounded () =
  let h = H.create () in
  for v = 1 to 1000 do
    H.record h v
  done;
  let p50 = H.percentile h 5000 in
  (* Interpolated within the bucket: for a uniform 1..1000 population
     the estimate lands within a few units of the true median, not at
     the bucket's upper bound (511) as the pre-fix code returned. *)
  Alcotest.(check bool) (Printf.sprintf "p50=%d in [495, 505]" p50) true
    (p50 >= 495 && p50 <= 505);
  check "p100 is the max" 1000 (H.percentile h 10000)

let test_percentile_single_sample_exact () =
  let h = H.create () in
  H.record h 5;
  (* One sample: every percentile is that sample.  The max_value clamp
     makes the interpolation exact here despite the [4, 7] bucket. *)
  List.iter (fun bp -> check (Printf.sprintf "bp %d" bp) 5 (H.percentile h bp))
    [ 0; 5000; 10000 ]

let test_percentile_identical_samples () =
  let h = H.create () in
  for _ = 1 to 100 do
    H.record h 5
  done;
  check "p50 of identical samples" 5 (H.percentile h 5000)

let test_zero_and_negative () =
  let h = H.create () in
  H.record h 0;
  H.record h (-5);
  check "bucketed at zero" 0 (H.percentile h 10000);
  check "count" 2 (H.count h)

let test_empty_percentile () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (H.percentile (H.create ()) 5000))

let test_percentile_opt () =
  let h = H.create () in
  Alcotest.(check (option int)) "empty: no median" None (H.percentile_opt h 5000);
  for v = 1 to 100 do
    H.record h v
  done;
  Alcotest.(check (option int)) "median" (Some (H.percentile h 5000))
    (H.percentile_opt h 5000);
  Alcotest.(check (option int)) "p90 leaves 10 beyond" (Some (H.percentile h 9000))
    (H.percentile_opt h 9000);
  Alcotest.(check (option int)) "p99 of 100 leaves 1 beyond" None
    (H.percentile_opt h 9900);
  Alcotest.(check (option int)) "the maximum" (Some 100) (H.percentile_opt h 10000)

let test_merge () =
  let a = H.create () and b = H.create () in
  H.record a 10;
  H.record b 10_000;
  H.merge_into ~src:a ~dst:b;
  check "merged count" 2 (H.count b);
  check "merged max" 10_000 (H.max_value b)

let test_buckets_ascending () =
  let h = H.create () in
  List.iter (H.record h) [ 1; 1; 5; 5; 5; 300 ];
  let bs = H.buckets h in
  check "three buckets" 3 (List.length bs);
  let counts = List.map (fun (_, _, c) -> c) bs in
  Alcotest.(check (list int)) "counts" [ 2; 3; 1 ] counts;
  List.iter
    (fun (lo, hi, _) -> Alcotest.(check bool) "lo<=hi" true (lo <= hi))
    bs

(* Cross-check against the exact [Stats.percentile]: both take the
   sample at [Stats.rank], and the histogram only interpolates inside
   that sample's power-of-two bucket. *)
let prop_percentile_cross_check =
  let rec bucket v = if v <= 0 then 0 else 1 + bucket (v lsr 1) in
  QCheck.Test.make
    ~name:"percentile within factor 2: same bucket as Stats.percentile" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_bound 1_000_000))
        (int_range 0 10_000))
    (fun (samples, bp) ->
      let h = H.create () in
      List.iter (H.record h) samples;
      let exact =
        Arc_util.Stats.percentile (Array.of_list (List.map float_of_int samples)) bp
      in
      bucket (H.percentile h bp) = bucket (int_of_float exact))

let prop_max_exact =
  QCheck.Test.make ~name:"max_value is exact" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 1_000_000))
    (fun samples ->
      let h = H.create () in
      List.iter (H.record h) samples;
      H.max_value h = List.fold_left max 0 samples)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "percentiles bounded" `Quick test_percentiles_bounded;
    Alcotest.test_case "single sample exact" `Quick
      test_percentile_single_sample_exact;
    Alcotest.test_case "identical samples" `Quick
      test_percentile_identical_samples;
    Alcotest.test_case "zero and negative" `Quick test_zero_and_negative;
    Alcotest.test_case "empty percentile" `Quick test_empty_percentile;
    Alcotest.test_case "percentile_opt refuses thin tails" `Quick test_percentile_opt;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "buckets ascending" `Quick test_buckets_ascending;
    QCheck_alcotest.to_alcotest prop_percentile_cross_check;
    QCheck_alcotest.to_alcotest prop_max_exact;
  ]
