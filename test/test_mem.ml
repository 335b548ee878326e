(* The memory substrate: real atomics instance and the counting
   instrumentation. *)

module Real = Arc_mem.Real_mem
module Intf = Arc_mem.Mem_intf
module Counting = Arc_mem.Counting.Make (Arc_mem.Real_mem)
module Sim = Arc_vsched.Sim_mem

let check = Alcotest.(check int)

let test_atomic_basics () =
  let a = Real.atomic 10 in
  check "load" 10 (Real.load a);
  Real.store a 20;
  check "store" 20 (Real.load a);
  check "exchange returns old" 20 (Real.exchange a 30);
  check "exchange stored" 30 (Real.load a)

let test_add_semantics () =
  let a = Real.atomic 100 in
  check "fetch_and_add returns old" 100 (Real.fetch_and_add a 5);
  check "after faa" 105 (Real.load a);
  check "add_and_fetch returns new" 112 (Real.add_and_fetch a 7);
  Real.incr a;
  check "incr" 113 (Real.load a)

let test_cas () =
  let a = Real.atomic 1 in
  Alcotest.(check bool) "cas succeeds" true (Real.compare_and_set a 1 2);
  Alcotest.(check bool) "cas fails on mismatch" false (Real.compare_and_set a 1 3);
  check "value from successful cas" 2 (Real.load a)

let test_fetch_or_and () =
  let a = Real.atomic 0b1010 in
  check "fetch_and_or returns old" 0b1010 (Real.fetch_and_or a 0b0101);
  check "or applied" 0b1111 (Real.load a);
  check "fetch_and_and returns old" 0b1111 (Real.fetch_and_and a 0b0110);
  check "and applied" 0b0110 (Real.load a)

let test_buffers () =
  let b = Real.alloc 8 in
  check "capacity" 8 (Real.capacity b);
  check "zero initialized" 0 (Real.read_word b 3);
  Real.write_words b ~src:[| 1; 2; 3; 4 |] ~len:4;
  check "word 0" 1 (Real.read_word b 0);
  check "word 3" 4 (Real.read_word b 3);
  let dst = Array.make 4 0 in
  Real.read_words b ~dst ~len:4;
  Alcotest.(check (array int)) "read_words" [| 1; 2; 3; 4 |] dst;
  let b2 = Real.alloc 8 in
  Real.blit b b2 ~len:4;
  check "blit copied" 3 (Real.read_word b2 2)

let test_buffer_validation () =
  let b = Real.alloc 4 in
  let raises f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Real.write_words b ~src:[| 1 |] ~len:2);
  raises (fun () -> Real.write_words b ~src:(Array.make 10 0) ~len:5);
  raises (fun () -> Real.read_words b ~dst:(Array.make 1 0) ~len:2);
  raises (fun () -> Real.alloc (-1));
  raises (fun () -> Real.blit b (Real.alloc 2) ~len:3)

let test_counting_classifies () =
  Counting.reset ();
  let a = Counting.atomic 0 in
  ignore (Counting.load a);
  ignore (Counting.load a);
  Counting.store a 5;
  ignore (Counting.exchange a 6);
  ignore (Counting.add_and_fetch a 1);
  ignore (Counting.fetch_and_add a 1);
  Counting.incr a;
  ignore (Counting.compare_and_set a 9 10);
  let c = Counting.counts () in
  check "plain loads" 2 c.Intf.atomic_load;
  check "plain stores" 1 c.Intf.atomic_store;
  check "five RMWs" 5 c.Intf.rmw

let test_counting_fetch_or_charges_retries () =
  Counting.reset ();
  let a = Counting.atomic 0 in
  ignore (Counting.fetch_and_or a 1);
  let c = Counting.counts () in
  (* emulated with one CAS (uncontended): exactly one RMW *)
  check "one RMW for uncontended fetch_or" 1 c.Intf.rmw

let test_counting_buffers () =
  Counting.reset ();
  let b = Counting.alloc 16 in
  Counting.write_words b ~src:(Array.make 16 7) ~len:16;
  ignore (Counting.read_word b 0);
  let dst = Array.make 8 0 in
  Counting.read_words b ~dst ~len:8;
  let c = Counting.counts () in
  check "word writes" 16 c.Intf.word_write;
  check "word reads" 9 c.Intf.word_read

let test_counting_reset () =
  Counting.reset ();
  let a = Counting.atomic 0 in
  Counting.incr a;
  Counting.reset ();
  check "counts cleared" 0 (Counting.counts ()).Intf.rmw

let test_counts_across_domains () =
  Counting.reset ();
  let a = Counting.atomic 0 in
  let work () =
    for _ = 1 to 1000 do
      Counting.incr a
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  check "per-domain counters aggregate" 2000 (Counting.counts ()).Intf.rmw;
  check "the atomic itself is consistent" 2000 (Counting.load a)

let test_real_atomics_parallel () =
  (* The substrate's RMWs must be atomic under parallel domains. *)
  let a = Real.atomic 0 in
  let n = 50_000 in
  let work () =
    for _ = 1 to n do
      Real.incr a
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  check "no lost increments" (2 * n) (Real.load a)

(* Bulk-operation edge cases, uniform across every instance of the
   signature: length 0 is a valid no-op, full capacity is legal, and
   any length exceeding a buffer (or negative) raises. *)
module Bulk_edges (M : Intf.S) = struct
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"

  let run () =
    let b = M.alloc 4 in
    (* len = 0: valid no-op, even with empty sources *)
    M.write_words b ~src:[||] ~len:0;
    M.read_words b ~dst:[||] ~len:0;
    M.blit b b ~len:0;
    check (M.name ^ ": untouched by len-0 ops") 0 (M.read_word b 0);
    (* full capacity *)
    M.write_words b ~src:[| 1; 2; 3; 4 |] ~len:4;
    let dst = Array.make 4 0 in
    M.read_words b ~dst ~len:4;
    Alcotest.(check (array int))
      (M.name ^ ": full-capacity roundtrip")
      [| 1; 2; 3; 4 |] dst;
    let b2 = M.alloc 4 in
    M.blit b b2 ~len:4;
    check (M.name ^ ": full-capacity blit") 4 (M.read_word b2 3);
    (* a zero-capacity buffer is legal and only hosts len-0 ops *)
    let z = M.alloc 0 in
    check (M.name ^ ": zero capacity") 0 (M.capacity z);
    M.write_words z ~src:[||] ~len:0;
    raises (fun () -> M.write_words z ~src:[| 1 |] ~len:1);
    (* overflow: len past the buffer, past the source, past the dst *)
    raises (fun () -> M.write_words b ~src:(Array.make 8 0) ~len:5);
    raises (fun () -> M.write_words b ~src:[| 1; 2 |] ~len:3);
    raises (fun () -> M.read_words b ~dst:(Array.make 2 0) ~len:3);
    raises (fun () -> M.read_words b ~dst:(Array.make 8 0) ~len:5);
    raises (fun () -> M.blit b b2 ~len:5);
    (* negative lengths *)
    raises (fun () -> M.write_words b ~src:[||] ~len:(-1));
    raises (fun () -> M.read_words b ~dst:[||] ~len:(-1));
    raises (fun () -> M.blit b b2 ~len:(-1))
end

module Real_edges = Bulk_edges (Real)
module Counting_edges = Bulk_edges (Counting)
module Sim_edges = Bulk_edges (Sim)

(* {1 The barrier-free word copy}

   [Real_mem]'s bulk operations run on {!Arc_util.Words.blit}, a C
   copy that skips the write barrier [Array.blit] pays per word on a
   major-heap array.  It must still behave exactly like [Array.blit]
   (memmove semantics on overlap), keep the bounds checks, and never
   allocate. *)

module Words = Arc_util.Words

let ramp n = Array.init n (fun i -> (i * 7919) - 3 + (i lsl 40))

let test_words_lengths () =
  let cap = 64 in
  let b = Real.alloc cap in
  Real.write_words b ~src:[||] ~len:0;
  Words.blit [||] 0 b cap 0;
  Alcotest.(check (array int)) "len 0 leaves the buffer untouched"
    (Array.make cap 0) b;
  let src = ramp cap in
  Real.write_words b ~src ~len:cap;
  Alcotest.(check (array int)) "len = capacity copies every word" src b;
  let dst = Array.make cap 0 in
  Real.read_words b ~dst ~len:cap;
  Alcotest.(check (array int)) "read_words at full capacity" src dst

let test_words_overlap () =
  let n = 37 in
  (* Same-array copies in both directions, against Array.blit as the
     reference: a forward overlap (dst after src) must copy from the
     top down, a backward one from the bottom up. *)
  List.iter
    (fun (src_pos, dst_pos, len, what) ->
      let expect = ramp n and got = ramp n in
      Array.blit expect src_pos expect dst_pos len;
      Words.blit got src_pos got dst_pos len;
      Alcotest.(check (array int)) what expect got)
    [
      (0, 3, 30, "forward overlap (dst above src)");
      (3, 0, 30, "backward overlap (dst below src)");
      (0, 1, n - 1, "forward overlap by one word");
      (1, 0, n - 1, "backward overlap by one word");
    ];
  let b = ramp n in
  Real.blit b b ~len:n;
  Alcotest.(check (array int)) "Real_mem.blit with src == dst is the identity"
    (ramp n) b

let test_words_bounds () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  let b = Real.alloc 8 in
  Alcotest.check_raises "write_words past capacity keeps its message"
    (Invalid_argument "Real_mem.write_words: bad length") (fun () ->
      Real.write_words b ~src:(Array.make 16 1) ~len:9);
  Alcotest.check_raises "read_words past capacity keeps its message"
    (Invalid_argument "Real_mem.read_words: bad length") (fun () ->
      Real.read_words b ~dst:(Array.make 16 1) ~len:9);
  let a = Array.make 8 0 in
  raises "negative length" (fun () -> Words.blit a 0 a 0 (-1));
  raises "source range past the end" (fun () -> Words.blit a 1 a 0 8);
  raises "destination range past the end" (fun () -> Words.blit a 0 a 1 8);
  raises "negative source position" (fun () -> Words.blit a (-1) a 0 1);
  raises "negative destination position" (fun () -> Words.blit a 0 a (-1) 1);
  Alcotest.(check (array int)) "a rejected copy writes nothing"
    (Array.make 8 0) a

let test_words_major_heap () =
  (* Two routes into the major heap: an array too large for the minor
     heap, and a small one promoted by a minor collection.  A copy
     into either must land, and the heap must stay sound across the
     following full major collection. *)
  let big = Real.alloc 4096 in
  let small = Real.alloc 32 in
  Gc.minor ();
  let src = ramp 4096 in
  Real.write_words big ~src ~len:4096;
  Real.write_words small ~src ~len:32;
  Gc.full_major ();
  Alcotest.(check (array int)) "large (major-allocated) destination" src big;
  Alcotest.(check (array int)) "promoted destination"
    (Array.sub src 0 32) small

let test_words_no_alloc () =
  let b = Real.alloc 512 in
  let src = ramp 512 and dst = Array.make 512 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Real.write_words b ~src ~len:512;
    Real.read_words b ~dst ~len:512
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "1000 write_words + read_words allocate nothing"
    0. (after -. before)

let test_atomic_contended_semantics () =
  (* A contended cell is an ordinary atomic apart from its placement. *)
  let a = Real.atomic_contended 7 in
  check "initial" 7 (Real.load a);
  Real.store a 9;
  check "store" 9 (Real.load a);
  check "faa returns old" 9 (Real.fetch_and_add a 3);
  Alcotest.(check bool) "cas" true (Real.compare_and_set a 12 13);
  check "after cas" 13 (Real.load a);
  let s = Sim.atomic_contended 5 in
  check "sim contended aliases atomic" 5 (Sim.load s)

let test_counting_contended_alloc_free () =
  (* Allocation placement is a layout concern, not an operation: a
     contended cell must count exactly like a plain one. *)
  Counting.reset ();
  let a = Counting.atomic_contended 0 in
  check "allocation charges nothing" 0 (Counting.counts ()).Intf.rmw;
  Counting.incr a;
  ignore (Counting.load a);
  let c = Counting.counts () in
  check "one RMW" 1 c.Intf.rmw;
  check "one load" 1 c.Intf.atomic_load

module Arc_cnt = Arc_core.Arc.Make (Counting)
module P_cnt = Arc_workload.Payload.Make (Counting)

let test_arc_fast_path_rmw_free () =
  (* The paper's fast path (§3.2): re-reading an unchanged register
     performs zero RMW instructions — only plain atomic loads. *)
  Counting.reset ();
  let capacity = 8 in
  let init = Array.make capacity 0 in
  P_cnt.stamp init ~seq:0 ~len:capacity;
  let reg = Arc_cnt.create ~readers:1 ~capacity ~init in
  let rd = Arc_cnt.reader reg 0 in
  (* First read claims the slot (pays the RMWs once). *)
  ignore (Arc_cnt.read_with rd ~f:(fun _ _ -> ()));
  let before = (Counting.counts ()).Intf.rmw in
  for _ = 1 to 10 do
    ignore (Arc_cnt.read_with rd ~f:(fun _ _ -> ()))
  done;
  let after = (Counting.counts ()).Intf.rmw in
  check "10 fast-path reads, 0 RMWs" 0 (after - before)

let prop_exchange_sequence =
  QCheck.Test.make ~name:"exchange chains return previous values" ~count:200
    QCheck.(small_list int)
    (fun xs ->
      let a = Real.atomic 0 in
      let rec go prev = function
        | [] -> true
        | x :: rest -> Real.exchange a x = prev && go x rest
      in
      go 0 xs)

let suite =
  [
    Alcotest.test_case "atomic basics" `Quick test_atomic_basics;
    Alcotest.test_case "add semantics" `Quick test_add_semantics;
    Alcotest.test_case "cas" `Quick test_cas;
    Alcotest.test_case "fetch or/and" `Quick test_fetch_or_and;
    Alcotest.test_case "buffers" `Quick test_buffers;
    Alcotest.test_case "buffer validation" `Quick test_buffer_validation;
    Alcotest.test_case "counting classifies ops" `Quick test_counting_classifies;
    Alcotest.test_case "counting fetch_or" `Quick test_counting_fetch_or_charges_retries;
    Alcotest.test_case "counting buffers" `Quick test_counting_buffers;
    Alcotest.test_case "counting reset" `Quick test_counting_reset;
    Alcotest.test_case "counts across domains" `Quick test_counts_across_domains;
    Alcotest.test_case "real atomics parallel" `Quick test_real_atomics_parallel;
    Alcotest.test_case "bulk edges (real)" `Quick Real_edges.run;
    Alcotest.test_case "bulk edges (counting)" `Quick Counting_edges.run;
    Alcotest.test_case "bulk edges (sim)" `Quick Sim_edges.run;
    Alcotest.test_case "word copy: len 0 and full capacity" `Quick
      test_words_lengths;
    Alcotest.test_case "word copy: same-array overlap" `Quick test_words_overlap;
    Alcotest.test_case "word copy: bounds" `Quick test_words_bounds;
    Alcotest.test_case "word copy: major-heap destination" `Quick
      test_words_major_heap;
    Alcotest.test_case "word copy: allocation-free" `Quick test_words_no_alloc;
    Alcotest.test_case "atomic_contended semantics" `Quick
      test_atomic_contended_semantics;
    Alcotest.test_case "atomic_contended counting" `Quick
      test_counting_contended_alloc_free;
    Alcotest.test_case "arc fast-path read is RMW-free" `Quick
      test_arc_fast_path_rmw_free;
    QCheck_alcotest.to_alcotest prop_exchange_sequence;
  ]
