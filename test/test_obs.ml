(* lib/obs tests (ISSUE 5): counter cells, read-outcome accounting,
   the trace ring, metric exposition — and the two observability
   theorems the design leans on, proved under the virtual scheduler:

   - the fast-path-hit counter equals exactly (reads - RMW reads)
     under an adversarial schedule, with the RMW side of the equation
     measured independently by the [Arc_mem.Counting] ledger
     (rmw = writes + 2 * slow reads, since ARC's only RMWs are the
     writer's W2 exchange and a slow read's R3 + R4 pair);

   - attaching telemetry changes no checker-visible history: the same
     seeded schedule with and without telemetry produces structurally
     identical operation histories. *)

module Obs = Arc_obs.Obs
module Ring = Arc_obs.Ring
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module History = Arc_trace.History
module Registry = Arc_harness.Registry
module Config = Arc_harness.Config

(* --- cells and groups --- *)

let test_cell () =
  let c = Obs.Cell.create () in
  Alcotest.(check int) "fresh cell is zero" 0 (Obs.Cell.get c);
  Obs.Cell.incr c;
  Obs.Cell.incr c;
  Obs.Cell.add c 5;
  Alcotest.(check int) "incr/add accumulate" 7 (Obs.Cell.get c);
  (* The exposed representation is the API contract the register hot
     paths compile against — a direct field store must be equivalent
     to [incr]. *)
  c.Obs.Cell.v <- c.Obs.Cell.v + 1;
  Alcotest.(check int) "direct field store counts" 8 (Obs.Cell.get c);
  Obs.Cell.reset c;
  Alcotest.(check int) "reset zeroes" 0 (Obs.Cell.get c)

let test_group () =
  let g = Obs.Group.create ~name:"t_total" ~help:"h" 3 in
  Alcotest.(check int) "domains" 3 (Obs.Group.domains g);
  Alcotest.(check string) "name" "t_total" (Obs.Group.name g);
  Alcotest.(check string) "help" "h" (Obs.Group.help g);
  Obs.Cell.add (Obs.Group.cell g 0) 10;
  Obs.Cell.add (Obs.Group.cell g 2) 32;
  Alcotest.(check int) "value sums cells" 42 (Obs.Group.value g);
  Alcotest.(check (array int)) "per_domain" [| 10; 0; 32 |]
    (Obs.Group.per_domain g);
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Obs.Group.create: 0 cells (need >= 1)") (fun () ->
      ignore (Obs.Group.create ~name:"x" ~help:"" 0))

let test_outcomes () =
  let o = Obs.Outcomes.create () in
  Obs.Outcomes.ok o;
  Obs.Outcomes.ok o;
  Obs.Outcomes.ok o;
  Obs.Outcomes.stale o;
  Alcotest.(check int) "ok" 3 (Obs.Outcomes.ok_count o);
  Alcotest.(check int) "stale" 1 (Obs.Outcomes.stale_count o);
  (* Merged into a fresh counter, every count carries over. *)
  let s = Obs.Outcomes.create () in
  Obs.Outcomes.merge_into ~src:o ~dst:s;
  Alcotest.(check int) "merged ok" 3 (Obs.Outcomes.ok_count s);
  Alcotest.(check int) "merged stale" 1 (Obs.Outcomes.stale_count s)

let test_outcomes_counters () =
  let o = Obs.Outcomes.create () in
  Alcotest.(check string) "fresh pp" "ok=0, stale=0"
    (Format.asprintf "%a" Obs.Outcomes.pp o);
  Obs.Outcomes.ok o;
  Obs.Outcomes.ok o;
  Obs.Outcomes.stale o;
  Alcotest.(check int) "ok" 2 (Obs.Outcomes.ok_count o);
  Alcotest.(check int) "stale" 1 (Obs.Outcomes.stale_count o);
  Alcotest.(check string) "pp" "ok=2, stale=1"
    (Format.asprintf "%a" Obs.Outcomes.pp o)

let test_outcomes_merge () =
  let a = Obs.Outcomes.create () and b = Obs.Outcomes.create () in
  Obs.Outcomes.ok a;
  Obs.Outcomes.stale b;
  Obs.Outcomes.stale b;
  Obs.Outcomes.ok b;
  (* Merged into a counter with counts of its own, every class adds. *)
  Obs.Outcomes.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "ok" 2 (Obs.Outcomes.ok_count a);
  Alcotest.(check int) "stale" 2 (Obs.Outcomes.stale_count a);
  (* src is left untouched. *)
  Alcotest.(check int) "src stale intact" 2 (Obs.Outcomes.stale_count b);
  Alcotest.(check int) "src ok intact" 1 (Obs.Outcomes.ok_count b)

(* --- trace ring --- *)

let test_ring_basic () =
  let r = Ring.create 5 in
  Alcotest.(check int) "capacity rounds up to a power of two" 8
    (Ring.capacity r);
  Alcotest.(check int) "fresh ring empty" 0 (Ring.recorded r);
  Alcotest.(check (list reject)) "fresh dump empty" [] (Ring.dump r);
  Ring.record r ~at:1 ~code:Ring.code_slot_claim 7 0 0;
  Ring.record r ~at:2 ~code:Ring.code_publish 7 1 0;
  let entries = Ring.dump r in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let e0 = List.nth entries 0 and e1 = List.nth entries 1 in
  Alcotest.(check int) "oldest first" 1 e0.Ring.at;
  Alcotest.(check int) "seq monotone" (e0.Ring.seq + 1) e1.Ring.seq;
  Alcotest.(check int) "operands kept" 7 e1.Ring.a;
  Alcotest.(check int) "code kept" Ring.code_publish e1.Ring.code;
  Ring.clear r;
  Alcotest.(check (list reject)) "clear empties" [] (Ring.dump r)

let test_ring_wrap () =
  let r = Ring.create 4 in
  for i = 1 to 11 do
    Ring.record r ~at:i ~code:Ring.code_reclaim i 0 0
  done;
  Alcotest.(check int) "recorded counts all" 11 (Ring.recorded r);
  let entries = Ring.dump r in
  Alcotest.(check int) "dump bounded by capacity" 4 (List.length entries);
  Alcotest.(check (list int)) "survivors are the most recent, oldest first"
    [ 8; 9; 10; 11 ]
    (List.map (fun e -> e.Ring.at) entries)

let test_ring_codes () =
  Alcotest.(check string) "known code" "slot_claim"
    (Ring.code_name Ring.code_slot_claim);
  Alcotest.(check string) "quarantine code" "quarantine"
    (Ring.code_name Ring.code_quarantine);
  Alcotest.(check bool) "codes distinct" true
    (let codes =
       [
         Ring.code_slot_claim; Ring.code_publish; Ring.code_freeze;
         Ring.code_reclaim; Ring.code_realloc; Ring.code_recover;
         Ring.code_quarantine;
       ]
     in
     List.length (List.sort_uniq compare codes) = List.length codes)

(* --- exposition --- *)

let contains ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let count_occurrences ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i acc =
    if i + nl > sl then acc
    else if String.sub s i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_prometheus () =
  let ms =
    [
      Obs.counter ~labels:[ ("reader", "0") ] ~help:"Fast hits"
        "arc_reads_fast_total" 10;
      Obs.counter ~labels:[ ("reader", "1") ] ~help:"Fast hits"
        "arc_reads_fast_total" 20;
      Obs.gauge ~help:"Degradation" "arc_degraded_rate" 0.25;
    ]
  in
  let text = Obs.prometheus ms in
  Alcotest.(check int) "HELP once per family" 1
    (count_occurrences ~needle:"# HELP arc_reads_fast_total" text);
  Alcotest.(check int) "TYPE once per family" 1
    (count_occurrences ~needle:"# TYPE arc_reads_fast_total counter" text);
  Alcotest.(check int) "one sample per labeled series" 1
    (count_occurrences ~needle:"arc_reads_fast_total{reader=\"0\"} 10" text);
  Alcotest.(check bool) "gauge typed" true
    (contains ~needle:"# TYPE arc_degraded_rate gauge" text);
  Alcotest.(check bool) "trailing newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n')

let test_label_escaping () =
  let ms =
    [
      Obs.counter
        ~labels:[ ("path", "a\\b\"c\nd") ]
        ~help:"backslash \\ and\nnewline in help" "escape_total" 1;
    ]
  in
  let text = Obs.prometheus ms in
  Alcotest.(check bool) "label value escaped" true
    (contains ~needle:"path=\"a\\\\b\\\"c\\nd\"" text);
  Alcotest.(check bool) "help newline escaped" true
    (contains ~needle:"and\\nnewline" text);
  let j = Obs.json ms in
  (* JSON escapes the control character numerically. *)
  Alcotest.(check bool) "json string escaped" true
    (contains ~needle:"a\\\\b\\\"c\\u000ad" j)

let test_json () =
  let ms = [ Obs.counter ~labels:[ ("k", "v") ] "m_total" 3 ] in
  let j = Obs.json ms in
  Alcotest.(check bool) "array brackets" true
    (String.length j >= 2 && j.[0] = '[' && j.[String.length j - 1] = ']');
  Alcotest.(check bool) "name field" true
    (contains ~needle:"\"name\": \"m_total\"" j);
  Alcotest.(check bool) "value field" true (contains ~needle:"\"value\": 3" j);
  Alcotest.(check bool) "labels kept" true
    (contains ~needle:"\"k\": \"v\"" j)

(* --- the reign epoch gauge against the superblock word (ISSUE 9):
   the process-wide [arc_reign_epoch] gauge is fed by every election
   campaign's config bump, the durable truth lives in the mapping's
   config-epoch word — after any number of handoffs the two must agree
   exactly --- *)

module Shm = Arc_shm.Shm_mem

let test_reign_gauge_crosscheck () =
  Arc_fabric.Fabric.reset_reign_metrics ();
  let path = Filename.temp_file "arc_obs_reign" ".reg" in
  let m = Shm.create ~path ~words:(1 lsl 12) in
  Fun.protect
    ~finally:(fun () ->
      Shm.close m;
      (try Sys.remove path with Sys_error _ -> ());
      Arc_fabric.Fabric.reset_reign_metrics ())
    (fun () ->
      let inst =
        Arc_shm.Shm_arc.create m ~shards:1 ~readers:1 ~capacity:4
          ~init:(Array.make 4 0)
      in
      let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
      let module E = Arc_resilience.Election.Make (I.R) in
      (* Seat 0's cells, as arc-crash's leader and standby see them. *)
      let seat =
        E.of_cells I.regs.(0)
          ~word:(Shm.shard_election_cell m ~shard:0)
          ~epoch:(Shm.shard_epoch_cell m ~shard:0)
          ~config:(Shm.config_epoch_cell m) ~hb:(Shm.alloc_raw m 1)
          ~now:(fun () -> Shm.tick m) ~lease:1
      in
      let handoff name candidate expected =
        match E.campaign seat ~candidate with
        | E.Won { config; _ } -> Alcotest.(check int) name expected config
        | E.Lost _ -> Alcotest.failf "%s: fresh-snapshot campaign lost" name
      in
      handoff "first handoff's epoch" 0 2;
      handoff "second handoff's epoch" 1 3;
      Alcotest.(check int) "superblock word through the mapping" 3
        (Shm.config_epoch m);
      let find name =
        List.find_opt
          (fun (mt : Obs.metric) -> mt.Obs.mname = name)
          (Arc_fabric.Fabric.reign_metrics ())
      in
      (match find "arc_reign_epoch" with
      | Some g ->
        Alcotest.(check bool) "gauge kind" true (g.Obs.mkind = Obs.Gauge);
        Alcotest.(check (float 0.0)) "gauge = superblock word" 3.0 g.Obs.value
      | None -> Alcotest.fail "arc_reign_epoch not exported");
      match find "arc_reign_handoffs_total" with
      | Some h ->
        Alcotest.(check (float 0.0)) "one handoff counted per bump" 2.0
          h.Obs.value
      | None -> Alcotest.fail "arc_reign_handoffs_total not exported")

(* The gauge holds the highest epoch any handoff in the process
   reached, not the last one: a fresh seat handing off at a lower
   epoch after another seat's does not lower it. *)

module Heap_seat = Arc_resilience.Election.Make (Arc_core.Arc.Make (Arc_mem.Real_mem))

let test_reign_gauge_keeps_max () =
  Arc_fabric.Fabric.reset_reign_metrics ();
  Fun.protect ~finally:Arc_fabric.Fabric.reset_reign_metrics (fun () ->
      let clock = ref 0 in
      let now () =
        incr clock;
        !clock
      in
      let seat () =
        Heap_seat.create ~readers:1 ~capacity:4 ~init:(Array.make 4 0) ~now ~lease:1
      in
      let handoff s candidate =
        match Heap_seat.campaign s ~candidate with
        | Heap_seat.Won { config; _ } -> config
        | Heap_seat.Lost _ -> Alcotest.fail "uncontested campaign lost"
      in
      let first = seat () in
      Alcotest.(check int) "first seat, first handoff" 2 (handoff first 0);
      Alcotest.(check int) "first seat, second handoff" 3 (handoff first 1);
      Alcotest.(check int) "fresh second seat's handoff" 2 (handoff (seat ()) 0);
      match
        List.find_opt
          (fun (mt : Obs.metric) -> mt.Obs.mname = "arc_reign_epoch")
          (Arc_fabric.Fabric.reign_metrics ())
      with
      | Some g -> Alcotest.(check (float 0.0)) "gauge keeps the first seat's 3" 3.0 g.Obs.value
      | None -> Alcotest.fail "arc_reign_epoch not exported")

(* --- the fast-path-hit accounting theorem, under the virtual
   scheduler with an independently counted substrate --- *)

module CM = Arc_mem.Counting.Make (Arc_vsched.Sim_mem)
module R = Arc_core.Arc.Make (CM)

let test_vsched_fast_path_accounting () =
  let readers = 3 in
  let reg = R.create ~readers ~capacity:8 ~init:[| 0; 0; 0; 0 |] in
  let tel = R.make_telemetry ~clock:Sched.now ~readers () in
  R.set_telemetry reg (Some tel);
  let total_writes = 150 and reads_per_reader = 300 in
  let reads_done = Array.make readers 0 in
  let writer () =
    let src = Array.make 4 0 in
    for k = 1 to total_writes do
      src.(0) <- k;
      R.write reg ~src ~len:4
    done
  in
  let reader i () =
    (* Handles are created inside the fiber, after telemetry attach,
       so the per-identity cells are resolved. *)
    let rd = R.reader reg i in
    for _ = 1 to reads_per_reader do
      R.read_with rd ~f:(fun _ _ -> ());
      reads_done.(i) <- reads_done.(i) + 1
    done
  in
  let fibers =
    Array.init (readers + 1) (fun i ->
        if i = 0 then writer else reader (i - 1))
  in
  (* Reset the substrate ledger after creation so the delta covers
     exactly the scheduled operations. *)
  CM.reset ();
  let strategy =
    Strategy.steal ~seed:7
      ~base:(Strategy.random ~seed:11)
      ~probability:0.2 ~min_pause:1 ~max_pause:40
  in
  let outcome = Sched.run ~strategy fibers in
  Alcotest.(check int) "all fibers completed" 0 outcome.Sched.unfinished;
  let total_reads = Array.fold_left ( + ) 0 reads_done in
  Alcotest.(check int) "all reads performed" (readers * reads_per_reader)
    total_reads;
  let fast = R.fast_reads tel and slow = R.slow_reads tel in
  (* The telemetry identity: every read is either an R2 fast hit or a
     slow R3+R4 subscription — so fast = reads - slow exactly. *)
  Alcotest.(check int) "fast-path hits = reads - slow reads"
    (total_reads - slow) fast;
  (* Cross-checked against the substrate's own RMW ledger: ARC's only
     RMWs are W2 (one per write) and R3+R4 (two per slow read). *)
  let counts = CM.counts () in
  Alcotest.(check int) "substrate rmw = writes + 2 * slow reads"
    (total_writes + (2 * slow))
    counts.Arc_mem.Mem_intf.rmw;
  (* The schedule was adversarial enough to exercise both paths. *)
  Alcotest.(check bool) "some fast hits" true (fast > 0);
  Alcotest.(check bool) "some slow reads" true (slow > 0)

(* --- telemetry is history-invariant --- *)

let event_to_tuple (e : History.event) =
  ( (match e.History.kind with History.Read -> 0 | History.Write -> 1),
    e.History.thread,
    e.History.seq,
    e.History.invoked,
    e.History.returned )

let run_pair name =
  let entry = Registry.find name in
  let cfg =
    {
      Config.default_sim with
      Config.sim_readers = 2;
      sim_size_words = 16;
      max_steps = 40_000;
      sim_workload = Config.Verify;
      sim_record = 8192;
    }
  in
  let plain = entry.Registry.run_sim ~strategy:(Strategy.random ~seed:5) cfg in
  let run_tel =
    match entry.Registry.run_sim_telemetry with
    | Some f -> f
    | None -> Alcotest.failf "%s has no telemetry runner" name
  in
  let with_tel, metrics = run_tel ~strategy:(Strategy.random ~seed:5) cfg in
  (plain, with_tel, metrics)

let check_same_history name =
  let plain, with_tel, metrics = run_pair name in
  Alcotest.(check int) "same reads" plain.Config.reads with_tel.Config.reads;
  Alcotest.(check int) "same writes" plain.Config.writes with_tel.Config.writes;
  Alcotest.(check int) "same torn" plain.Config.torn with_tel.Config.torn;
  Alcotest.(check (float 1e-9)) "same simulated duration"
    plain.Config.duration with_tel.Config.duration;
  let events r =
    match r.Config.history with
    | None -> Alcotest.failf "%s: no history recorded" name
    | Some h -> List.map event_to_tuple (History.events h)
  in
  Alcotest.(check (list (triple int int (triple int int int))))
    "identical operation history"
    (List.map (fun (a, b, c, d, e) -> (a, b, (c, d, e))) (events plain))
    (List.map (fun (a, b, c, d, e) -> (a, b, (c, d, e))) (events with_tel));
  (* ... while the instrumented run did observe something. *)
  Alcotest.(check bool) "telemetry metrics non-empty" true (metrics <> []);
  let total_of n =
    List.fold_left
      (fun acc (m : Obs.metric) ->
        if m.Obs.mname = n then acc +. m.Obs.value else acc)
      0. metrics
  in
  Alcotest.(check (float 1e-9)) "telemetry read accounting matches history"
    (float_of_int with_tel.Config.reads)
    (total_of "arc_reads_fast_total" +. total_of "arc_reads_slow_total")

let test_history_invariance_arc () = check_same_history "arc"
let test_history_invariance_dynamic () = check_same_history "arc-dynamic"

let suite =
  [
    Alcotest.test_case "cell: incr/add/reset and exposed word" `Quick test_cell;
    Alcotest.test_case "group: per-domain cells, sum, bounds" `Quick test_group;
    Alcotest.test_case "outcomes: counts and merge_into" `Quick test_outcomes;
    Alcotest.test_case "outcomes counters" `Quick test_outcomes_counters;
    Alcotest.test_case "outcomes merge" `Quick test_outcomes_merge;
    Alcotest.test_case "ring: record/dump/clear" `Quick test_ring_basic;
    Alcotest.test_case "ring: wrap keeps most recent" `Quick test_ring_wrap;
    Alcotest.test_case "ring: code vocabulary" `Quick test_ring_codes;
    Alcotest.test_case "prometheus: family grouping" `Quick test_prometheus;
    Alcotest.test_case "prometheus/json: escaping" `Quick test_label_escaping;
    Alcotest.test_case "json: shape" `Quick test_json;
    Alcotest.test_case "reign epoch gauge = superblock word" `Quick
      test_reign_gauge_crosscheck;
    Alcotest.test_case "reign epoch gauge keeps the maximum" `Quick
      test_reign_gauge_keeps_max;
    Alcotest.test_case "vsched: fast hits = reads - RMW reads" `Quick
      test_vsched_fast_path_accounting;
    Alcotest.test_case "telemetry changes no history (arc)" `Quick
      test_history_invariance_arc;
    Alcotest.test_case "telemetry changes no history (arc-dynamic)" `Quick
      test_history_invariance_dynamic;
  ]
