(* Tests of the benchmark's own code: the percentile rule, self-time
   subtraction in the span recorder, and that every metric BENCHMARK.json
   names is emitted, with its unit, by every workload. *)

open Perfbench

(* {1 Percentile rule} *)

let samples_of list =
  let s = Samples.create 4096 in
  List.iter (Samples.add s) list;
  s

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Samples.rank ~n:1000 9900);
  Alcotest.(check int) "10 samples beyond p99 of 1000" 10 (Samples.beyond ~n:1000 9900);
  Alcotest.(check int) "p50 of 1 is rank 1" 1 (Samples.rank ~n:1 5000);
  Alcotest.(check int) "p99.9 of 10000" 9990 (Samples.rank ~n:10000 9990)

let test_tail () =
  let t = Alcotest.(option int) in
  Alcotest.check t "1000 samples give p99" (Some 9900) (Samples.tail_bp 1000);
  Alcotest.check t "999 samples leave 9 beyond p99: p95" (Some 9500) (Samples.tail_bp 999);
  Alcotest.check t "the target caps the rung" (Some 9900) (Samples.tail_bp 1_000_000);
  Alcotest.check t "a higher target" (Some 9990) (Samples.tail_bp ~target:9999 10_000);
  Alcotest.check t "20 samples: only p50" (Some 5000) (Samples.tail_bp 20);
  Alcotest.check t "19 samples: nothing" None (Samples.tail_bp 19)

let test_summary () =
  let s = samples_of (List.init 1000 (fun i -> 1000 - i)) in
  match Samples.summarize s with
  | None -> Alcotest.fail "no summary"
  | Some m ->
      Alcotest.(check int) "n" 1000 m.n;
      Alcotest.(check int) "p50" 500 m.p50;
      Alcotest.(check int) "p99" 990 m.tail;
      Alcotest.(check int) "rung" 9900 m.tail_bp

let test_decimation () =
  let s = Samples.create 8 in
  for i = 1 to 100 do
    Samples.add s i
  done;
  Alcotest.(check int) "seen" 100 (Samples.seen s);
  let kept = Samples.to_array s in
  Alcotest.(check bool) "bounded" true (Array.length kept <= 8 && Array.length kept >= 4);
  let gaps = Array.init (Array.length kept - 1) (fun i -> kept.(i + 1) - kept.(i)) in
  Alcotest.(check bool) "uniform stride" true (Array.for_all (fun g -> g = gaps.(0)) gaps)

(* {1 Span recorder} *)

let names = [| "root"; "a"; "g"; "b" |]

(* root [0,100] holds a [10,40] (which holds g [15,25]) and b [50,90];
   allocation counters move alongside. *)
let recorded () =
  let t = Spans.create ~names ~tid:1 ~raw:16 in
  Spans.enter_at t ~ts:0 ~words:0;
  Spans.enter_at t ~ts:10 ~words:5;
  Spans.enter_at t ~ts:15 ~words:10;
  Spans.leave_at t ~ts:25 ~words:20 2;
  Spans.leave_at t ~ts:40 ~words:25 1;
  Spans.enter_at t ~ts:50 ~words:30;
  Spans.leave_at t ~ts:90 ~words:40 3;
  Spans.leave_at t ~ts:100 ~words:50 0;
  t

let test_self_time () =
  let t = recorded () in
  let check name total self alloc =
    let i = Array.to_list names |> List.mapi (fun i n -> (n, i)) |> List.assoc name in
    Alcotest.(check int) (name ^ " count") 1 (Spans.count t i);
    Alcotest.(check int) (name ^ " total") total (Spans.total t i);
    Alcotest.(check int) (name ^ " self") self (Spans.self t i);
    Alcotest.(check int) (name ^ " alloc") alloc (Spans.alloc t i)
  in
  check "g" 10 10 10;
  check "a" 30 20 10;
  check "b" 40 40 10;
  check "root" 100 30 20

let test_overhead () =
  let t = recorded () in
  let overhead = { Spans.per_span = 4.; inside = 1. } in
  let f = Alcotest.float 1e-9 in
  (* root: 2 children, 3 descendants *)
  Alcotest.check f "self" (30. -. 1. -. (2. *. 3.)) (Spans.median_self ~overhead [ t ] 0);
  Alcotest.check f "total" (100. -. 1. -. (3. *. 4.)) (Spans.median_total ~overhead [ t ] 0);
  Alcotest.check f "leaf" (10. -. 1.) (Spans.median_self ~overhead [ t ] 2);
  Alcotest.check f "absent name" 0. (Spans.median_self [ Spans.create ~names ~tid:2 ~raw:0 ] 0)

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    match String.index_from_opt s i sub.[0] with
    | None -> acc
    | Some j ->
        if j + n <= String.length s && String.sub s j n = sub then go (j + 1) (acc + 1)
        else go (j + 1) acc
  in
  go 0 0

let test_chrome () =
  let path = "spans_test.json" in
  let oc = open_out path in
  Spans.write_chrome oc ~origin:0 [ recorded () ];
  close_out oc;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one complete event per span" 4 (count_sub s "\"ph\":\"X\"");
  Alcotest.(check int) "root self time" 1 (count_sub s "\"self_ns\":30,")

(* {1 Metric coverage} *)

(* Just enough JSON to read BENCHMARK.json. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Other

let parse s =
  let i = ref 0 in
  let peek () = s.[!i] in
  let rec ws () =
    if !i < String.length s && String.contains " \n\r\t" (peek ()) then begin
      incr i;
      ws ()
    end
  in
  let str () =
    incr i;
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr i;
      Buffer.add_char b (peek ());
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr i;
        Obj (members ())
    | '[' ->
        incr i;
        Arr (elements ())
    | '"' -> Str (str ())
    | _ ->
        while not (String.contains ",]}" (peek ())) do
          incr i
        done;
        Other
  and members () =
    ws ();
    if peek () = '}' then (incr i; [])
    else begin
      let k = str () in
      ws ();
      incr i (* ':' *);
      let v = value () in
      ws ();
      if peek () = ',' then incr i;
      (k, v) :: members ()
    end
  and elements () =
    ws ();
    if peek () = ']' then (incr i; [])
    else begin
      let v = value () in
      ws ();
      if peek () = ',' then incr i;
      v :: elements ()
    end
  in
  value ()

let field k = function Obj m -> List.assoc k m | _ -> failwith ("not an object: " ^ k)
let items = function Arr l -> l | _ -> failwith "not an array"
let text = function Str s -> s | _ -> failwith "not a string"

let declared bench key =
  List.map (fun m -> (text (field "name" m), text (field "unit" m))) (items (field key bench))

let bench_file = ref "BENCHMARK.json"

let load () =
  let ic = open_in !bench_file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

let test_workload_names () =
  let names = List.map (fun w -> text (field "name" w)) (items (field "workloads" (load ()))) in
  Alcotest.(check (list string)) "same workloads" names (List.map fst Workloads.all)

let check_emitted what declared (ms : Report.metric list) =
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Report.metric) -> m.name = name) ms with
      | None -> Alcotest.failf "%s: %s not emitted" what name
      | Some m -> Alcotest.(check string) (what ^ " " ^ name ^ " unit") unit_ m.unit_)
    declared;
  Alcotest.(check int) (what ^ ": nothing undeclared") (List.length declared) (List.length ms)

let test_emitted (name, run) () =
  let bench = load () in
  List.iter
    (fun trace ->
      let cfg =
        {
          Harness.seconds = 0.2;
          seed = 7;
          trace;
          tmp_dir = Filename.current_dir_name;
          trace_out = None;
        }
      in
      let o = run cfg in
      Alcotest.(check bool) (name ^ " correct") true (Report.correct o);
      check_emitted name
        (declared bench (if trace then "per_layer" else "end_to_end"))
        (Report.result_metrics o ~traced:trace))
    [ false; true ]

let () =
  if Array.length Sys.argv > 1 then bench_file := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond the tail" `Quick test_tail;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "decimation keeps a uniform subsample" `Quick test_decimation;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts child spans" `Quick test_self_time;
          Alcotest.test_case "tracer cost compensation" `Quick test_overhead;
          Alcotest.test_case "chrome trace events" `Quick test_chrome;
        ] );
      ( "metrics",
        Alcotest.test_case "workloads match BENCHMARK.json" `Quick test_workload_names
        :: List.map
             (fun ((name, _) as w) ->
               Alcotest.test_case ("every metric emitted: " ^ name) `Slow (test_emitted w))
             Workloads.all );
    ]
