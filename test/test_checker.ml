(* The atomicity checker itself: it must accept exactly the histories
   the paper's Criterion 1 accepts, and reject the anomalies with a
   useful verdict.  These are hand-built histories with known
   verdicts — the checker's own unit tests, before it is trusted to
   judge the register algorithms. *)

module History = Arc_trace.History
module Checker = Arc_trace.Checker

let ev kind ~thread ~seq ~i ~r = History.event kind ~thread ~seq ~invoked:i ~returned:r
let w ~seq ~i ~r = ev History.Write ~thread:0 ~seq ~i ~r
let rd ~thread ~seq ~i ~r = ev History.Read ~thread ~seq ~i ~r

let ok_report = function
  | Ok (r : Checker.report) -> r
  | Error v -> Alcotest.failf "unexpected violation: %a" Checker.pp_violation v

let expect_violation name result pred =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a violation" name
  | Error v ->
    if not (pred v) then
      Alcotest.failf "%s: wrong violation: %a" name Checker.pp_violation v

let test_empty_history () =
  let r = ok_report (Checker.check (History.of_events [])) in
  Alcotest.(check int) "nothing checked" 0 r.Checker.reads_checked

let test_reads_of_initial_value () =
  (* No writes at all: every read must return seq 0. *)
  let h =
    History.of_events
      [ rd ~thread:1 ~seq:0 ~i:0 ~r:1; rd ~thread:2 ~seq:0 ~i:2 ~r:3 ]
  in
  ignore (ok_report (Checker.check h))

let test_sequential_alternation () =
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        rd ~thread:1 ~seq:1 ~i:20 ~r:30;
        w ~seq:2 ~i:40 ~r:50;
        rd ~thread:1 ~seq:2 ~i:60 ~r:70;
      ]
  in
  let r = ok_report (Checker.check h) in
  Alcotest.(check int) "reads" 2 r.Checker.reads_checked;
  Alcotest.(check int) "writes" 2 r.Checker.writes_checked

let test_concurrent_read_may_return_either () =
  (* A read overlapping write 2 may return 1 or 2: both accepted. *)
  let with_seq seq =
    History.of_events
      [ w ~seq:1 ~i:0 ~r:10; w ~seq:2 ~i:20 ~r:40; rd ~thread:1 ~seq ~i:25 ~r:35 ]
  in
  ignore (ok_report (Checker.check (with_seq 1)));
  ignore (ok_report (Checker.check (with_seq 2)))

let test_stale_read_rejected () =
  (* Write 2 completed strictly before the read began: returning 1
     violates regularity (the "no-past" property). *)
  let h =
    History.of_events
      [ w ~seq:1 ~i:0 ~r:10; w ~seq:2 ~i:20 ~r:30; rd ~thread:1 ~seq:1 ~i:40 ~r:50 ]
  in
  expect_violation "stale read" (Checker.check h) (function
    | Checker.Stale_read { low; _ } -> low = 2
    | _ -> false)

let test_future_read_rejected () =
  (* Read returned before write 2 was even invoked, yet claims seq 2. *)
  let h =
    History.of_events
      [ w ~seq:1 ~i:0 ~r:10; rd ~thread:1 ~seq:2 ~i:12 ~r:14; w ~seq:2 ~i:20 ~r:30 ]
  in
  expect_violation "future read" (Checker.check h) (function
    | Checker.Future_read { high; _ } -> high = 1
    | _ -> false)

let test_new_old_inversion_rejected () =
  (* Both reads overlap write 2, r1 → r2 in real time, r1 returns the
     new value but r2 the old one: regular, yet not atomic —
     exactly Criterion 1's forbidden pattern. *)
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        w ~seq:2 ~i:20 ~r:60;
        rd ~thread:1 ~seq:2 ~i:25 ~r:30;
        rd ~thread:2 ~seq:1 ~i:35 ~r:40;
      ]
  in
  expect_violation "new-old inversion" (Checker.check h) (function
    | Checker.New_old_inversion { earlier; later } ->
      earlier.History.seq = 2 && later.History.seq = 1
    | _ -> false);
  (* The same history passes the regularity-only check: the checker
     distinguishes the two register classes. *)
  ignore (ok_report (Checker.check_regular_only h))

let test_inversion_across_readers () =
  (* The no-inversion rule is global across reader threads, not
     per-thread. *)
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:5;
        w ~seq:2 ~i:10 ~r:100;
        rd ~thread:1 ~seq:2 ~i:20 ~r:25;
        rd ~thread:2 ~seq:1 ~i:30 ~r:35;
      ]
  in
  expect_violation "cross-reader inversion" (Checker.check h) (function
    | Checker.New_old_inversion _ -> true
    | _ -> false)

let test_inversion_in_program_order () =
  (* A thread's next read stamped at the instant its previous one
     returned still follows it; across threads that tie is concurrent. *)
  let h ~thread =
    History.of_events
      [ w ~seq:1 ~i:0 ~r:100; rd ~thread:1 ~seq:1 ~i:20 ~r:25; rd ~thread ~seq:0 ~i:25 ~r:30 ]
  in
  expect_violation "same-thread inversion" (Checker.check (h ~thread:1)) (function
    | Checker.New_old_inversion _ -> true
    | _ -> false);
  ignore (ok_report (Checker.check (h ~thread:2)))

let test_concurrent_reads_may_disagree () =
  (* Overlapping reads (neither precedes the other) may split old/new
     freely — this is allowed even for atomic registers. *)
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:5;
        w ~seq:2 ~i:10 ~r:100;
        rd ~thread:1 ~seq:2 ~i:20 ~r:50;
        rd ~thread:2 ~seq:1 ~i:30 ~r:60;
      ]
  in
  ignore (ok_report (Checker.check h))

let test_malformed_gap () =
  let h = History.of_events [ w ~seq:2 ~i:0 ~r:10 ] in
  expect_violation "sequence gap" (Checker.check h) (function
    | Checker.Malformed _ -> true
    | _ -> false)

let test_malformed_overlapping_writes () =
  let h = History.of_events [ w ~seq:1 ~i:0 ~r:10; w ~seq:2 ~i:5 ~r:15 ] in
  expect_violation "overlapping writes" (Checker.check h) (function
    | Checker.Malformed _ -> true
    | _ -> false)

let test_malformed_unknown_seq () =
  let h = History.of_events [ w ~seq:1 ~i:0 ~r:10; rd ~thread:1 ~seq:5 ~i:20 ~r:30 ] in
  expect_violation "read of never-written seq" (Checker.check h) (function
    | Checker.Malformed _ -> true
    | _ -> false)

let test_fast_path_counter () =
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        rd ~thread:1 ~seq:1 ~i:20 ~r:21;
        rd ~thread:1 ~seq:1 ~i:22 ~r:23;
        rd ~thread:1 ~seq:1 ~i:24 ~r:25;
        rd ~thread:2 ~seq:1 ~i:26 ~r:27;
      ]
  in
  let r = ok_report (Checker.check h) in
  Alcotest.(check int) "two repeat reads on thread 1" 2 r.Checker.fast_path_candidates

(* A reference random generator of *valid atomic* histories: simulate
   an atomic register sequentially with randomized interleaving
   points, then check that the checker accepts.  This is the
   property-based contract: no false positives on atomic histories. *)
let prop_no_false_positives =
  QCheck.Test.make ~name:"checker accepts generated atomic histories" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Arc_util.Splitmix.of_int seed in
      let time = ref 0 in
      let tick () =
        time := !time + 1 + Arc_util.Splitmix.int rng 3;
        !time
      in
      let current = ref 0 in
      let events = ref [] in
      let nwrites = ref 0 in
      (* Sequential, instantaneous ops at distinct times are trivially
         atomic; we then stretch intervals backwards/forwards without
         crossing the linearization points' order. *)
      for _ = 1 to 30 do
        if Arc_util.Splitmix.bool rng then begin
          incr nwrites;
          current := !nwrites;
          let t = tick () in
          events := w ~seq:!nwrites ~i:t ~r:(tick ()) :: !events
        end
        else begin
          let t = tick () in
          let thread = 1 + Arc_util.Splitmix.int rng 3 in
          events := rd ~thread ~seq:!current ~i:t ~r:(tick ()) :: !events
        end
      done;
      match Checker.check (History.of_events !events) with
      | Ok _ -> true
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "empty history" `Quick test_empty_history;
    Alcotest.test_case "reads of initial value" `Quick test_reads_of_initial_value;
    Alcotest.test_case "sequential alternation" `Quick test_sequential_alternation;
    Alcotest.test_case "concurrent read either value" `Quick
      test_concurrent_read_may_return_either;
    Alcotest.test_case "stale read rejected" `Quick test_stale_read_rejected;
    Alcotest.test_case "future read rejected" `Quick test_future_read_rejected;
    Alcotest.test_case "new-old inversion rejected" `Quick
      test_new_old_inversion_rejected;
    Alcotest.test_case "inversion across readers" `Quick test_inversion_across_readers;
    Alcotest.test_case "inversion in program order" `Quick test_inversion_in_program_order;
    Alcotest.test_case "concurrent reads may disagree" `Quick
      test_concurrent_reads_may_disagree;
    Alcotest.test_case "malformed: gap" `Quick test_malformed_gap;
    Alcotest.test_case "malformed: overlapping writes" `Quick
      test_malformed_overlapping_writes;
    Alcotest.test_case "malformed: unknown seq" `Quick test_malformed_unknown_seq;
    Alcotest.test_case "fast path counter" `Quick test_fast_path_counter;
    QCheck_alcotest.to_alcotest prop_no_false_positives;
  ]

(* --- crash completions under an epoch fence (ISSUE 3) ----------------
   [check_crash ?fence] bounds the took-effect completion of the
   pending write at the supervisor's fence time: a post-fence history
   that only works if the zombie's publish landed AFTER the fence must
   be convicted, while the same publish landing before the fence is
   accepted. *)

let crash_outcome = function
  | Ok ((_ : Checker.report), o) -> o
  | Error v -> Alcotest.failf "unexpected violation: %a" Checker.pp_violation v

let test_crash_vanished () =
  (* Pending write 2 never observed; surviving reads see only 1. *)
  let h =
    History.of_events [ w ~seq:1 ~i:0 ~r:10; rd ~thread:1 ~seq:1 ~i:25 ~r:30 ]
  in
  match crash_outcome (Checker.check_crash ~pending_write:(2, 20) h) with
  | Checker.Vanished -> ()
  | o -> Alcotest.failf "expected Vanished, got %s" (Checker.crash_outcome_name o)

let test_crash_took_effect_before_fence () =
  (* Pending write 2 (invoked 20) observed after the fence at 30: fine,
     the fenced candidate completes at 30 and the read at 32 follows
     it with nothing newer in between. *)
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        rd ~thread:1 ~seq:2 ~i:32 ~r:35;
        w ~seq:3 ~i:40 ~r:50;
        rd ~thread:1 ~seq:3 ~i:60 ~r:70;
      ]
  in
  (match
     crash_outcome (Checker.check_crash ~pending_write:(2, 20) ~fence:30 h)
   with
  | Checker.Took_effect -> ()
  | o ->
    Alcotest.failf "expected Took_effect, got %s" (Checker.crash_outcome_name o));
  (* Without the fence the took-effect candidate is open-ended and
     overlaps the successor's write 3 — the history is unjudgeable.
     The fence is what makes successor-continued histories checkable. *)
  expect_violation "unfenced successor history"
    (Checker.check_crash ~pending_write:(2, 20) h)
    (fun _ -> true)

let test_crash_fence_convicts_late_publish () =
  (* A read of the pending seq AFTER the successor's write 3 completed:
     under the fence the pending candidate completed at 30, so the read
     at 60 is stale — a zombie publish that somehow landed post-fence
     is convicted, not forgiven. *)
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        w ~seq:3 ~i:40 ~r:50;
        rd ~thread:1 ~seq:2 ~i:60 ~r:70;
      ]
  in
  expect_violation "fenced late publish"
    (Checker.check_crash ~pending_write:(2, 20) ~fence:30 h)
    (fun _ -> true)

let test_bounded_staleness_ok () =
  let h =
    History.of_events
      [ w ~seq:1 ~i:0 ~r:10; w ~seq:2 ~i:20 ~r:30; w ~seq:3 ~i:40 ~r:50 ]
  in
  (* Serve at t=55: all 3 writes completed; seq 2 lags by 1 ≤ 2. *)
  match
    Checker.check_bounded_staleness h ~bound:2
      [ { Checker.thread = 1; seq = 2; at = 55 } ]
  with
  | Ok n -> Alcotest.(check int) "serves checked" 1 n
  | Error v ->
    Alcotest.failf "unexpected staleness violation: %a"
      Checker.pp_staleness_violation v

let test_bounded_staleness_violation () =
  let h =
    History.of_events
      [
        w ~seq:1 ~i:0 ~r:10;
        w ~seq:2 ~i:20 ~r:30;
        w ~seq:3 ~i:40 ~r:50;
        w ~seq:4 ~i:60 ~r:70;
      ]
  in
  (* Serve at t=75 returning seq 1: 4 completed writes, lag 3 > 2. *)
  match
    Checker.check_bounded_staleness h ~bound:2
      [ { Checker.thread = 1; seq = 1; at = 75 } ]
  with
  | Ok _ -> Alcotest.fail "expected a staleness violation"
  | Error v ->
    Alcotest.(check int) "completed" 4 v.Checker.completed;
    Alcotest.(check int) "bound" 2 v.Checker.bound;
    Alcotest.(check int) "served seq" 1 v.Checker.serve.Checker.seq

(* --- mutation properties ---------------------------------------------
   Generate a valid atomic history, apply a targeted corruption, and
   require the checker to convict — the complement of
   [prop_no_false_positives]. *)

let generate_valid seed =
  let rng = Arc_util.Splitmix.of_int seed in
  let time = ref 0 in
  let tick () =
    time := !time + 1 + Arc_util.Splitmix.int rng 3;
    !time
  in
  let current = ref 0 in
  let events = ref [] in
  let nwrites = ref 0 in
  for _ = 1 to 40 do
    if Arc_util.Splitmix.bool rng then begin
      incr nwrites;
      current := !nwrites;
      let t = tick () in
      events := w ~seq:!nwrites ~i:t ~r:(tick ()) :: !events
    end
    else begin
      let t = tick () in
      let thread = 1 + Arc_util.Splitmix.int rng 3 in
      events := rd ~thread ~seq:!current ~i:t ~r:(tick ()) :: !events
    end
  done;
  (List.rev !events, !nwrites)

let mutate_read events ~pred ~f =
  (* Replace the first read satisfying pred with (f read). *)
  let rec go acc = function
    | [] -> None
    | (e : History.event) :: rest when e.kind = History.Read && pred e ->
      Some (List.rev_append acc (f e :: rest))
    | e :: rest -> go (e :: acc) rest
  in
  go [] events

let convicts events =
  match Checker.check (History.of_events events) with Ok _ -> false | Error _ -> true

let prop_stale_mutation_caught =
  QCheck.Test.make ~name:"decreasing a read's seq below a completed write is caught"
    ~count:200 QCheck.small_int
    (fun seed ->
      let events, _ = generate_valid seed in
      match
        mutate_read events
          ~pred:(fun e -> e.History.seq >= 1)
          ~f:(fun e ->
            rd ~thread:e.History.thread ~seq:(e.History.seq - 1)
              ~i:e.History.invoked ~r:e.History.returned)
      with
      | None -> QCheck.assume_fail ()
      | Some mutated -> convicts mutated)

let prop_future_mutation_caught =
  QCheck.Test.make ~name:"inflating a read's seq beyond the clock is caught"
    ~count:200 QCheck.small_int
    (fun seed ->
      let events, nwrites = generate_valid seed in
      match
        mutate_read events
          ~pred:(fun e -> e.History.seq < nwrites)
          ~f:(fun e ->
            rd ~thread:e.History.thread ~seq:(e.History.seq + 1)
              ~i:e.History.invoked ~r:e.History.returned)
      with
      | None -> QCheck.assume_fail ()
      | Some mutated -> convicts mutated)

let prop_swap_mutation_caught =
  QCheck.Test.make
    ~name:"swapping the values of two ordered reads of distinct writes is caught"
    ~count:200 QCheck.small_int
    (fun seed ->
      let events, _ = generate_valid seed in
      let reads =
        List.filter (fun (e : History.event) -> e.kind = History.Read) events
      in
      (* first pair of reads with strictly increasing seqs *)
      let rec find_pair = function
        | (a : History.event) :: rest ->
          (match
             List.find_opt (fun (b : History.event) -> b.History.seq > a.History.seq) rest
           with
          | Some b -> Some (a, b)
          | None -> find_pair rest)
        | [] -> None
      in
      match find_pair reads with
      | None -> QCheck.assume_fail ()
      | Some (a, b) ->
        let swapped =
          List.map
            (fun (e : History.event) ->
              if e == a then { e with History.seq = b.History.seq }
              else if e == b then { e with History.seq = a.History.seq }
              else e)
            events
        in
        convicts swapped)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_stale_mutation_caught;
      QCheck_alcotest.to_alcotest prop_future_mutation_caught;
      QCheck_alcotest.to_alcotest prop_swap_mutation_caught;
      Alcotest.test_case "crash: vanished" `Quick test_crash_vanished;
      Alcotest.test_case "crash: took effect before fence" `Quick
        test_crash_took_effect_before_fence;
      Alcotest.test_case "crash: fence convicts late publish" `Quick
        test_crash_fence_convicts_late_publish;
      Alcotest.test_case "bounded staleness ok" `Quick test_bounded_staleness_ok;
      Alcotest.test_case "bounded staleness violation" `Quick
        test_bounded_staleness_violation;
    ]
