(* Summary statistics and the one percentile rule (nearest rank on
   basis points, a tail only with >= 10 samples beyond it). *)

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

let test_rank () =
  let check = Alcotest.(check int) in
  check "p99 of 100 is rank 99" 99 (Stats.rank ~n:100 9900);
  check "p50 of 2 is rank 1" 1 (Stats.rank ~n:2 5000);
  check "p99 of 1000 is rank 990" 990 (Stats.rank ~n:1000 9900);
  check "p50 of 1 is rank 1" 1 (Stats.rank ~n:1 5000);
  check "p99.9 of 10000" 9990 (Stats.rank ~n:10000 9990);
  check "p0 is rank 1" 1 (Stats.rank ~n:7 0)

let test_tail_bp () =
  let t = Alcotest.(option int) in
  for n = 0 to 19 do
    Alcotest.check t (Printf.sprintf "%d samples: no tail" n) None (Stats.tail_bp n)
  done;
  Alcotest.check t "20 samples: only p50" (Some 5000) (Stats.tail_bp 20);
  Alcotest.check t "1000 samples give p99" (Some 9900) (Stats.tail_bp 1000);
  Alcotest.check t "999 samples leave 9 beyond p99: p95" (Some 9500) (Stats.tail_bp 999);
  Alcotest.check t "the target caps the rung" (Some 9900) (Stats.tail_bp 1_000_000);
  Alcotest.check t "a higher target" (Some 9990) (Stats.tail_bp ~target:9999 10_000)

let test_percentile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  feq "p0 = min" 10. (Stats.percentile xs 0);
  feq "p100 = max" 40. (Stats.percentile xs 10000);
  feq "median is the lower middle sample" 20. (Stats.percentile xs 5000);
  (* input must not be mutated *)
  let ys = [| 3.; 1.; 2. |] in
  ignore (Stats.percentile ys 5000);
  Alcotest.(check bool) "input untouched" true (ys = [| 3.; 1.; 2. |])

let test_percentile_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Stats.percentile [||] 5000);
  raises (fun () -> Stats.percentile [| 1. |] (-1));
  raises (fun () -> Stats.percentile [| 1. |] 10001)

let test_summarize () =
  let s = Stats.summarize [| 5.; 2.; 3.; 1.; 4. |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  feq "mean" 3. s.Stats.mean;
  feq "min" 1. s.Stats.min;
  feq "max" 5. s.Stats.max;
  feq "median" 3. s.Stats.p50;
  Alcotest.(check int) "5 samples support no tail rung" 10000 s.Stats.tail_bp;
  feq "an unsupported tail is the maximum" 5. s.Stats.tail;
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let s = Stats.summarize xs in
  Alcotest.(check int) "1000 samples: p99" 9900 s.Stats.tail_bp;
  feq "p99 of 1..1000 is rank 990" 990. s.Stats.tail;
  let s = Stats.summarize ~target:9990 xs in
  Alcotest.(check int) "p99.9 needs 10 beyond: p99" 9900 s.Stats.tail_bp

let test_summarize_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize [||]))

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
        (pair (int_range 0 10_000) (int_range 0 10_000)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi)

let prop_tail_leaves_ten_beyond =
  QCheck.Test.make ~name:"every chosen rung leaves >= 10 beyond" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 5000 9999))
    (fun (n, target) ->
      match Stats.tail_bp ~target n with
      | None -> n < 20 || target < 5000
      | Some bp -> bp <= target && n - Stats.rank ~n bp >= 10 && Stats.supports ~n bp)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "nearest rank" `Quick test_rank;
    Alcotest.test_case "tail rung" `Quick test_tail_bp;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile validation" `Quick test_percentile_validation;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_tail_leaves_ten_beyond;
  ]
