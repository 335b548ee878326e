(* Simulated shared memory: atomicity of RMWs between fibers and
   word-granular interleaving of buffers. *)

module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module Sim = Arc_vsched.Sim_mem

let check = Alcotest.(check int)

let run_fibers ?(seed = 1) fibers =
  ignore (Sched.run ~strategy:(Strategy.random ~seed) fibers)

let test_standalone_use () =
  (* Outside a scheduler, Sim_mem degrades to plain operations. *)
  let a = Sim.atomic 1 in
  Sim.store a 2;
  check "store/load" 2 (Sim.load a);
  check "faa" 2 (Sim.fetch_and_add a 3);
  check "exchange" 5 (Sim.exchange a 0)

let test_rmw_atomic_across_fibers () =
  (* Two fibers incrementing concurrently must never lose updates:
     the whole point of modelling RMW as a single scheduling step. *)
  let a = Sim.atomic 0 in
  let fiber () =
    for _ = 1 to 1000 do
      Sim.incr a
    done
  in
  run_fibers [| fiber; fiber |];
  check "no lost increments" 2000 (Sim.load a)

let test_plain_rmw_weights () =
  let a = Sim.atomic 0 in
  let plain_steps =
    let outcome =
      Sched.run ~strategy:(Strategy.round_robin ())
        [| (fun () -> for _ = 1 to 100 do ignore (Sim.load a) done) |]
    in
    outcome.Sched.steps
  in
  let rmw_steps =
    let outcome =
      Sched.run ~strategy:(Strategy.round_robin ())
        [| (fun () -> for _ = 1 to 100 do Sim.incr a done) |]
    in
    outcome.Sched.steps
  in
  (* Both runs make the same number of scheduling decisions; the step
     difference is exactly the extra RMW weight: 100 × (w − 1). *)
  check "RMW surcharge" (100 * (!Sim.rmw_weight - 1)) (rmw_steps - plain_steps)

let test_blit_unit_costs () =
  (* Without a cache a word copied by [blit] is one step; the run adds
     one scheduler decision per quantum (dispatch + one per cede). *)
  let src = Sim.alloc 8 and dst = Sim.alloc 8 in
  let steps f = (Sched.run ~strategy:(Strategy.round_robin ()) [| f |]).Sched.steps in
  check "one step per word" (5 + 6) (steps (fun () -> Sim.blit src dst ~len:5));
  let a = Sim.atomic 0 in
  check "an RMW is rmw_weight steps" (!Sim.rmw_weight + 2)
    (steps (fun () -> ignore (Sim.fetch_and_add a 1)))

let test_cas_semantics () =
  let a = Sim.atomic 5 in
  let ok = ref false and ko = ref true in
  run_fibers
    [|
      (fun () ->
        ok := Sim.compare_and_set a 5 6;
        ko := Sim.compare_and_set a 5 7);
    |];
  Alcotest.(check bool) "first cas wins" true !ok;
  Alcotest.(check bool) "second cas fails" false !ko;
  check "value" 6 (Sim.load a)

let test_fetch_or () =
  let a = Sim.atomic 0 in
  let olds = Array.make 4 (-1) in
  let fiber i () = olds.(i) <- Sim.fetch_and_or a (1 lsl i) in
  run_fibers (Array.init 4 (fun i -> fiber i));
  check "all bits set" 0b1111 (Sim.load a);
  (* each old value must miss the caller's own bit *)
  Array.iteri
    (fun i old ->
      Alcotest.(check bool) "own bit not yet set" false (old land (1 lsl i) <> 0))
    olds

let test_buffer_tearing_is_representable () =
  (* A racy word-by-word copy must be interruptible mid-buffer: the
     simulator's ability to produce the very anomaly the register
     algorithms exist to prevent. *)
  let buf = Sim.alloc 16 in
  let torn = ref false in
  let writer () =
    Sim.write_words buf ~src:(Array.make 16 1) ~len:16;
    Sim.write_words buf ~src:(Array.make 16 2) ~len:16
  in
  let reader () =
    for _ = 1 to 20 do
      let dst = Array.make 16 0 in
      Sim.read_words buf ~dst ~len:16;
      let first = dst.(0) in
      if Array.exists (fun w -> w <> first) dst then torn := true
    done
  in
  (* Hunt across seeds; at least one schedule must interleave the copy. *)
  let seed = ref 0 in
  while (not !torn) && !seed < 50 do
    ignore
      (Sched.run ~strategy:(Strategy.random ~seed:!seed) [| writer; reader |]);
    incr seed
  done;
  Alcotest.(check bool) "some schedule exposes a torn copy" true !torn

let test_blit_and_capacity () =
  let a = Sim.alloc 4 and b = Sim.alloc 4 in
  run_fibers
    [|
      (fun () ->
        Sim.write_words a ~src:[| 9; 8; 7; 6 |] ~len:4;
        Sim.blit a b ~len:4);
    |];
  check "blit in sim" 7 (Sim.read_word b 2);
  check "capacity" 4 (Sim.capacity a)

let test_determinism_of_interleaving () =
  let observe seed =
    let a = Sim.atomic 0 in
    let log = ref [] in
    let fiber i () =
      for _ = 1 to 5 do
        log := (i, Sim.fetch_and_add a 1) :: !log
      done
    in
    ignore (Sched.run ~strategy:(Strategy.random ~seed) (Array.init 3 fiber));
    List.rev !log
  in
  Alcotest.(check bool) "replayable" true (observe 42 = observe 42)

let suite =
  [
    Alcotest.test_case "standalone use" `Quick test_standalone_use;
    Alcotest.test_case "rmw atomic across fibers" `Quick test_rmw_atomic_across_fibers;
    Alcotest.test_case "plain vs rmw weights" `Quick test_plain_rmw_weights;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "fetch_or" `Quick test_fetch_or;
    Alcotest.test_case "tearing representable" `Quick test_buffer_tearing_is_representable;
    Alcotest.test_case "blit and capacity" `Quick test_blit_and_capacity;
    Alcotest.test_case "blit: step per word" `Quick test_blit_unit_costs;
    Alcotest.test_case "interleaving deterministic" `Quick test_determinism_of_interleaving;
  ]
