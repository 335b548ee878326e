(* Summary statistics used by the experiment reports. *)

module Stats = Arc_util.Stats

let feq msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let test_mean () =
  feq "mean of 1..5" 3. (Stats.mean [| 1.; 2.; 3.; 4.; 5. |]);
  feq "single" 7. (Stats.mean [| 7. |])

let test_stddev () =
  feq "known sample stddev" 2. (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] *. sqrt (7. /. 8.));
  feq "constant data" 0. (Stats.stddev [| 3.; 3.; 3. |]);
  feq "singleton" 0. (Stats.stddev [| 42. |])

let test_percentile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  feq "p0 = min" 10. (Stats.percentile xs 0.);
  feq "p100 = max" 40. (Stats.percentile xs 100.);
  feq "median interpolates" 25. (Stats.percentile xs 50.);
  (* input must not be mutated *)
  let ys = [| 3.; 1.; 2. |] in
  ignore (Stats.percentile ys 50.);
  Alcotest.(check bool) "input untouched" true (ys = [| 3.; 1.; 2. |])

let test_percentile_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Stats.percentile [||] 50.);
  raises (fun () -> Stats.percentile [| 1. |] (-1.));
  raises (fun () -> Stats.percentile [| 1. |] 101.)

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  feq "mean" 3. s.Stats.mean;
  feq "min" 1. s.Stats.min;
  feq "max" 5. s.Stats.max;
  feq "median" 3. s.Stats.median;
  Alcotest.(check bool) "ci positive" true (s.Stats.ci95 > 0.)

let test_summarize_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize [||]))

let test_online_matches_batch () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i) *. 100.) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check int) "count" 1000 (Stats.Online.count o);
  Alcotest.(check (float 1e-6)) "mean matches" (Stats.mean xs) (Stats.Online.mean o);
  Alcotest.(check (float 1e-6)) "stddev matches" (Stats.stddev xs)
    (Stats.Online.stddev o)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean between min and max" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.))
        (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_online_mean =
  QCheck.Test.make ~name:"online mean = batch mean" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 100) (float_bound_inclusive 100.))
    (fun xs ->
      let o = Stats.Online.create () in
      Array.iter (Stats.Online.add o) xs;
      Float.abs (Stats.Online.mean o -. Stats.mean xs) < 1e-6)

let test_p999 () =
  (* 1000 samples 1..1000: the 99.9th percentile sits at the tail and
     must dominate the p99 column it rides next to. *)
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize xs in
  feq "p999 of 1..1000" 999.001 s.Stats.p999;
  Alcotest.(check bool) "p999 >= p95" true (s.Stats.p999 >= s.Stats.p95);
  Alcotest.(check bool) "p999 <= max" true (s.Stats.p999 <= s.Stats.max)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile validation" `Quick test_percentile_validation;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
    Alcotest.test_case "online matches batch" `Quick test_online_matches_batch;
    Alcotest.test_case "p999 tail percentile" `Quick test_p999;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_online_mean;
  ]
