(* Exhaustive bounded exploration: sanity of the enumerator itself,
   then the micro-scenario catalogue — tiny register scenarios judged
   by the Checker over ALL interleavings, the paper's §4 case analyses
   as exhaustively checked facts. *)

module Explore = Arc_vsched.Explore
module Sched = Arc_vsched.Sched
module Scenario = Arc_fault.Scenario
module Mem = Arc_fault.Campaign.Mem
module Fault_plan = Arc_fault.Fault_plan

let check = Alcotest.(check int)

(* Two fibers, each a single cede: schedules = choices at the points
   where both are runnable.  Counting them validates the DFS. *)
let test_enumerates_all_interleavings () =
  let seen = Hashtbl.create 16 in
  let outcome =
    Explore.exhaustive
      ~scenario:(fun () ->
        let log = ref [] in
        let fiber i () =
          log := (2 * i) :: !log;
          Sched.cede ();
          log := (2 * i) + 1 :: !log
        in
        let checkf () = Hashtbl.replace seen (List.rev !log) () in
        ([| fiber 0; fiber 1 |], checkf))
      ()
  in
  Alcotest.(check bool) "exhausted" true outcome.Explore.exhausted;
  (* Interleavings of two 2-event sequences preserving order: C(4,2) = 6. *)
  check "all 6 distinct interleavings observed" 6 (Hashtbl.length seen);
  Alcotest.(check bool) "at least 6 schedules run" true (outcome.Explore.schedules >= 6)

let test_max_schedules_cap () =
  let outcome =
    Explore.exhaustive ~max_schedules:3
      ~scenario:(fun () ->
        let fiber () =
          for _ = 1 to 4 do
            Sched.cede ()
          done
        in
        ([| fiber; fiber; fiber |], fun () -> ()))
      ()
  in
  check "stopped at cap" 3 outcome.Explore.schedules;
  Alcotest.(check bool) "not exhausted" false outcome.Explore.exhausted

(* {1 The catalogue}

   One row per exhaustive fact: a stamped write racing one reader's
   [reads] validated reads.  Single-read rows are Lemma 4.1's race (an
   untorn, regular value and a free slot in every schedule); two-read
   rows add Criterion 1 (no new-old inversion).  Adding a protocol is
   one row. *)

module Arc = Arc_core.Arc.Make (Mem)
module Ad = Arc_core.Arc_dynamic.Make (Mem)
module Rf = Arc_baselines.Rf.Make (Mem)
module Pt = Arc_baselines.Peterson.Make (Mem)
module Sp = Arc_baselines.Simpson_reg.Make (Mem)
module Torn = Broken_regs.Torn (Mem)

(* Lease 0: anything superseded and still pinned is revoked at once,
   the harshest setting for the reader's size-validation handshake. *)
let reclaim reg = Ad.reclaim_stale reg ~lease:0

(* The write's first copy stops after 2 words and the writer dies. *)
let tear_crash =
  Fault_plan.(tear ~fiber:0 ~at_copy:1 ~at_word:2 ~silent:false empty)

let catalogue =
  Scenario.
    [
      entry "arc write/read race" (arc (module Arc)) ~words:3
        ~control:"unsound register";
      entry "arc no inversion" (arc (module Arc)) ~words:2 ~reads:2;
      entry "arc tear crash" (arc (module Arc)) ~words:4 ~plan:tear_crash;
      entry "dynamic reclaim race" (arc ~epilogue:reclaim (module Ad)) ~words:2;
      (* The two [Prefix] budgets are DFS prefixes of spaces that do not
         exhaust in test time (Peterson's two-buffer copies: ≈10^8). *)
      entry "dynamic reclaim no inversion" (arc ~epilogue:reclaim (module Ad))
        ~words:2 ~reads:2 ~budget:(Prefix 200_000);
      entry "unsound register" (register (module Torn)) ~words:3 ~expect:Convicted;
      entry "rf write/read race" (register (module Rf)) ~words:2;
      entry "rf no inversion" (register (module Rf)) ~words:2 ~reads:2;
      entry "peterson write/read race" (register (module Pt)) ~words:2
        ~budget:(Prefix 150_000);
      entry "simpson write/read race" (register (module Sp)) ~words:2;
      entry "simpson no inversion" (register (module Sp)) ~words:2 ~reads:2;
    ]

let title (e : Scenario.entry) =
  e.name
  ^
  match (e.expect, e.budget) with
  | Convicted, _ -> " convicted exhaustively"
  | Clean, Exhaustive -> " exhaustive"
  | Clean, Prefix _ -> " (bounded DFS)"

let test_entry (e : Scenario.entry) () =
  let r = Scenario.run e in
  Printf.printf "%s: %d schedules, exhausted %b, %d convicted\n" e.name
    r.schedules r.exhausted r.convicted;
  if r.verdict <> e.expect then
    Alcotest.failf "%s: %d of %d schedules convicted%s" e.name r.convicted
      r.schedules
      (match r.first_violation with
      | Some (s, msg) -> Printf.sprintf ", first (schedule %d): %s" s msg
      | None -> "");
  (match e.budget with
  | Exhaustive -> Alcotest.(check bool) "space exhausted" true r.exhausted
  | Prefix n -> check "whole prefix explored" n r.schedules);
  (* Non-vacuity: a planned fault fires in every schedule, and an
     epilogue both acts and finds nothing to do somewhere. *)
  check "schedules a planned fault fired in"
    (if Fault_plan.size e.plan = 0 then 0 else r.schedules)
    r.faulted;
  Option.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "epilogue acted in %d of %d schedules" n r.schedules)
        true
        (n > 0 && n < r.schedules))
    r.acted;
  Option.iter
    (fun c ->
      match List.find_opt (fun (x : Scenario.entry) -> x.name = c) catalogue with
      | Some x when x.expect = Convicted -> ()
      | _ -> Alcotest.failf "%s: no convicted control %S" e.name c)
    e.control

let suite =
  [
    Alcotest.test_case "enumerates all interleavings" `Quick
      test_enumerates_all_interleavings;
    Alcotest.test_case "max_schedules cap" `Quick test_max_schedules_cap;
  ]
  @ List.map (fun e -> Alcotest.test_case (title e) `Quick (test_entry e)) catalogue
