(* The MESI cache model, simulated memory's coherence cost rule
   ([Sim_mem.with_cache]), and the E9 claims as assertions. *)

module Cache = Arc_vsched.Cache
module Sim = Arc_vsched.Sim_mem
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module Coherence_exp = Arc_harness.Coherence_exp

let check = Alcotest.(check int)

let stat f c = f (Cache.stats c)

let test_read_transitions () =
  let c = Cache.create ~agents:3 in
  (* cold read: fetch *)
  let cost = Cache.read c ~agent:0 ~line:1 in
  check "cold read costs a fetch" Cache.fetch_cost cost;
  check "one fetch" 1 (stat (fun s -> s.Cache.fetches) c);
  (* re-read: hit *)
  check "re-read hits" Cache.hit_cost (Cache.read c ~agent:0 ~line:1);
  (* another agent reading: fetch, no invalidation *)
  check "second agent fetches" Cache.fetch_cost (Cache.read c ~agent:1 ~line:1);
  check "no invalidations for shared readers" 0
    (stat (fun s -> s.Cache.invalidations) c)

let test_write_invalidates_sharers () =
  let c = Cache.create ~agents:4 in
  ignore (Cache.read c ~agent:0 ~line:7);
  ignore (Cache.read c ~agent:1 ~line:7);
  ignore (Cache.read c ~agent:2 ~line:7);
  let cost = Cache.write c ~agent:3 ~line:7 in
  check "write upgrade costs an RFO" Cache.rfo_cost cost;
  check "three sharers invalidated" 3 (stat (fun s -> s.Cache.invalidations) c);
  (* writer now hits *)
  check "subsequent write hits" Cache.hit_cost (Cache.write c ~agent:3 ~line:7);
  (* a sharer must re-fetch, downgrading the modified copy *)
  check "sharer re-fetch" Cache.fetch_cost (Cache.read c ~agent:0 ~line:7);
  check "one writeback" 1 (stat (fun s -> s.Cache.writebacks) c)

let test_rmw_ping_pong () =
  (* Two agents alternating RMWs on one line: every access is an RFO
     invalidating the other — the §3.2 split-line story. *)
  let c = Cache.create ~agents:2 in
  ignore (Cache.write c ~agent:0 ~line:3);
  Cache.reset_stats c;
  for _ = 1 to 10 do
    ignore (Cache.write c ~agent:1 ~line:3);
    ignore (Cache.write c ~agent:0 ~line:3)
  done;
  check "20 RFOs" 20 (stat (fun s -> s.Cache.rfos) c);
  check "20 invalidations" 20 (stat (fun s -> s.Cache.invalidations) c);
  check "zero hits" 0 (stat (fun s -> s.Cache.hits) c)

let test_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Cache.create ~agents:0);
  let c = Cache.create ~agents:2 in
  raises (fun () -> Cache.read c ~agent:2 ~line:0);
  raises (fun () -> Cache.write c ~agent:(-1) ~line:0)

(* Steps a single fiber takes to run [f] under round-robin: the
   accesses' weights plus one scheduler decision per quantum. *)
let steps_of f =
  (Sched.run ~strategy:(Strategy.round_robin ()) [| f |]).Sched.steps

let test_with_cache_charges_costs () =
  let cache = Cache.create ~agents:3 in
  let steps =
    Sim.with_cache cache (fun () ->
        let a = Sim.atomic 0 in
        steps_of (fun () ->
            ignore (Sim.load a) (* fiber 0: fetch *);
            ignore (Sim.load a) (* hit *);
            Sim.incr a (* RFO upgrade *)))
  in
  (* fetch + hit + rfo, plus one scheduler decision per quantum:
     the initial dispatch and one resumption after each of the three
     cedes. *)
  check "weighted steps"
    (Cache.fetch_cost + Cache.hit_cost + Cache.rfo_cost + 4)
    steps

let test_buffer_lines () =
  let cache = Cache.create ~agents:2 in
  let s =
    Sim.with_cache cache (fun () ->
        let b = Sim.alloc 16 (* two lines *) in
        ignore (steps_of (fun () -> Sim.write_words b ~src:(Array.make 16 1) ~len:16));
        Cache.stats cache)
  in
  check "16 writes" 16 s.Cache.writes;
  (* 2 cold RFOs (one per line), 14 hits *)
  check "two RFOs" 2 s.Cache.rfos;
  check "fourteen hits" 14 s.Cache.hits

let test_blit_reads_and_writes () =
  (* Under a cache, a word copied by [blit] is a read of the source
     line and a write of the destination line. *)
  let cache = Cache.create ~agents:2 in
  Sim.with_cache cache @@ fun () ->
  let src = Sim.alloc 8 and dst = Sim.alloc 8 (* one line each *) in
  let steps = steps_of (fun () -> Sim.blit src dst ~len:1) in
  let s = Cache.stats cache in
  check "one read" 1 s.Cache.reads;
  check "one write" 1 s.Cache.writes;
  (* cold source fetch + cold destination RFO, two cedes *)
  check "weighted steps" (Cache.fetch_cost + Cache.rfo_cost + 3) steps;
  Cache.reset_stats cache;
  let steps = steps_of (fun () -> Sim.blit src dst ~len:3) in
  let s = Cache.stats cache in
  check "three reads" 3 s.Cache.reads;
  check "three writes" 3 s.Cache.writes;
  check "warm: hits only" (6 * Cache.hit_cost + 7) steps

let test_with_cache_uninstalls_on_raise () =
  let cache = Cache.create ~agents:2 in
  (match Sim.with_cache cache (fun () -> failwith "body") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the body's exception");
  let a = Sim.atomic 0 in
  check "the next run is charged unit costs"
    (1 + !Sim.rmw_weight + 3)
    (steps_of (fun () ->
         ignore (Sim.load a);
         Sim.incr a));
  check "the cache saw none of it" 0 (stat (fun s -> s.Cache.reads + s.Cache.writes) cache)

(* E9's headline claims as assertions. *)
let test_arc_beats_rf_on_coherence_traffic () =
  let rows =
    Coherence_exp.measure ~readers:6 ~size:32 ~writes_quota:40 ~reads_quota:160
      ~seed:3
  in
  let find name =
    List.find (fun r -> r.Coherence_exp.algorithm = name) rows
  in
  let arc = find "arc" and rf = find "rf" in
  Alcotest.(check bool)
    (Printf.sprintf "arc inv/read %.3f < rf %.3f" arc.Coherence_exp.inv_per_read
       rf.Coherence_exp.inv_per_read)
    true
    (arc.Coherence_exp.inv_per_read < 0.6 *. rf.Coherence_exp.inv_per_read);
  Alcotest.(check bool)
    (Printf.sprintf "rf pays ≈1 RFO per read (%.3f)" rf.Coherence_exp.rfo_per_read)
    true
    (rf.Coherence_exp.rfo_per_read > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "arc throughput %.1f > rf %.1f" arc.Coherence_exp.throughput
       rf.Coherence_exp.throughput)
    true
    (arc.Coherence_exp.throughput > rf.Coherence_exp.throughput)

let test_arc_steady_state_reads_are_traffic_free () =
  (* No writes at all: after warm-up, ARC readers generate zero
     coherence messages — the fast path never touches a line
     exclusively. *)
  let module Arc = Arc_core.Arc.Make (Sim) in
  let cache = Cache.create ~agents:4 in
  Sim.with_cache cache @@ fun () ->
  let reg = Arc.create ~readers:3 ~capacity:8 ~init:(Array.make 8 1) in
  let handles = Array.init 3 (Arc.reader reg) in
  (* Warm each reader under the same fiber id it will measure with,
     so the cold fetches land before the reset. *)
  let warm_fibers =
    Array.init 3 (fun i () -> ignore (Arc.read_with handles.(i) ~f:(fun _ _ -> ())))
  in
  let fibers =
    Array.init 3 (fun i () ->
        for _ = 1 to 50 do
          ignore (Arc.read_with handles.(i) ~f:(fun _ _ -> ()))
        done)
  in
  ignore (Sched.run ~strategy:(Strategy.round_robin ()) warm_fibers);
  Cache.reset_stats cache;
  ignore (Sched.run ~strategy:(Strategy.random ~seed:5) fibers);
  let s = Cache.stats cache in
  check "zero invalidations" 0 s.Cache.invalidations;
  check "zero RFOs" 0 s.Cache.rfos;
  check "zero fetches" 0 s.Cache.fetches;
  Alcotest.(check bool) "many hits" true (s.Cache.hits > 100)

let suite =
  [
    Alcotest.test_case "read transitions" `Quick test_read_transitions;
    Alcotest.test_case "write invalidates sharers" `Quick
      test_write_invalidates_sharers;
    Alcotest.test_case "rmw ping-pong" `Quick test_rmw_ping_pong;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "with_cache costs" `Quick test_with_cache_charges_costs;
    Alcotest.test_case "buffer lines" `Quick test_buffer_lines;
    Alcotest.test_case "blit: read + write" `Quick test_blit_reads_and_writes;
    Alcotest.test_case "raise uninstalls" `Quick test_with_cache_uninstalls_on_raise;
    Alcotest.test_case "E9: arc beats rf on traffic" `Quick
      test_arc_beats_rf_on_coherence_traffic;
    Alcotest.test_case "E9: steady-state reads traffic-free" `Quick
      test_arc_steady_state_reads_are_traffic_free;
  ]
