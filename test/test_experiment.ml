(* Smoke tests for the experiment drivers: with quick options, every
   figure/table builder must return the advertised structure with
   plausible contents, so `bin/experiments.exe` cannot rot silently. *)

module Grid = Arc_harness.Grid
module Fig_throughput = Arc_harness.Fig_throughput
module Fig_rmw = Arc_harness.Fig_rmw
module Fig_ablation = Arc_harness.Fig_ablation
module Fig_latency = Arc_harness.Fig_latency
module Series = Arc_report.Series
module Table = Arc_report.Table

let opts = { Grid.quick with Grid.duration_s = 0.02; sim_steps = 8_000 }

let expect_series name series_list ~figures ~series_each =
  Alcotest.(check int) (name ^ ": figure count") figures (List.length series_list);
  List.iter
    (fun s ->
      let names = Series.series_names s in
      Alcotest.(check int) (name ^ ": algorithms per figure") series_each
        (List.length names);
      Alcotest.(check bool)
        (name ^ ": arc present")
        true (List.mem "arc" names);
      let table = Series.to_table s in
      Alcotest.(check bool) (name ^ ": has rows") true (Table.rows table > 0))
    series_list

let test_fig1_sim () =
  expect_series "fig1-sim" (Fig_throughput.fig1_sim opts) ~figures:1 ~series_each:4

let test_fig1_real () =
  expect_series "fig1-real" (Fig_throughput.fig1_real opts) ~figures:1 ~series_each:4

let test_fig2_sim () =
  expect_series "fig2-sim" (Fig_throughput.fig2_sim opts) ~figures:1 ~series_each:4

let test_fig3_sim () =
  expect_series "fig3-sim" (Fig_throughput.fig3_sim opts) ~figures:1 ~series_each:4

let test_rmw_table () =
  let t = Fig_rmw.rmw_table opts in
  (* 9 algorithms, but simpson only supports 1 reader (skipped at 4)
     and everyone else contributes one row per (readers, rpw). *)
  Alcotest.(check bool) "has rows" true (Table.rows t >= 16);
  Alcotest.(check int) "columns" 7 (List.length (Table.columns t));
  (* ARC's r=8 row must show the amortized fast path. *)
  let arc_r8 =
    List.find_opt
      (fun row -> match row with "arc" :: _ :: "8" :: _ -> true | _ -> false)
      (Table.body t)
  in
  match arc_r8 with
  | Some (_ :: _ :: _ :: rmw_per_read :: _) ->
    Alcotest.(check string) "2 RMW / 8 reads" "0.250" rmw_per_read
  | _ -> Alcotest.fail "arc r=8 row missing"

let test_ablation_hint () =
  let t = Fig_ablation.ablation_hint opts in
  Alcotest.(check bool) "two variants per reader count" true (Table.rows t >= 2)

let test_ablation_dynamic () =
  let t = Fig_ablation.ablation_dynamic opts in
  Alcotest.(check int) "three distributions" 3 (Table.rows t);
  (* dynamic footprint must undercut static for every distribution *)
  List.iter
    (fun row ->
      match row with
      | [ _; static_w; dynamic_w; _ ] ->
        Alcotest.(check bool) "dynamic < static" true
          (int_of_string dynamic_w < int_of_string static_w)
      | _ -> Alcotest.fail "unexpected row shape")
    (Table.body t)

let test_latency_table () =
  let t = Fig_latency.latency_table opts in
  Alcotest.(check bool) "one row per algorithm (with history)" true
    (Table.rows t >= 6);
  List.iter
    (fun row ->
      match row with
      | [ _algo; reads; mean_us; _p50; _p999; _max ] ->
        Alcotest.(check bool) "reads recorded" true (int_of_string reads > 0);
        Alcotest.(check bool) "positive latency" true (float_of_string mean_us > 0.)
      | _ -> Alcotest.fail "unexpected row shape")
    (Table.body t)

let suite =
  [
    Alcotest.test_case "fig1 sim" `Quick test_fig1_sim;
    Alcotest.test_case "fig1 real" `Quick test_fig1_real;
    Alcotest.test_case "fig2 sim" `Quick test_fig2_sim;
    Alcotest.test_case "fig3 sim" `Quick test_fig3_sim;
    Alcotest.test_case "rmw table" `Quick test_rmw_table;
    Alcotest.test_case "ablation hint" `Quick test_ablation_hint;
    Alcotest.test_case "ablation dynamic" `Quick test_ablation_dynamic;
    Alcotest.test_case "latency table" `Quick test_latency_table;
  ]
