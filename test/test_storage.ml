(* The two slot-storage policies of the one ARC core ({!Arc.Make}:
   fixed, {!Arc_dynamic.Make}: elastic).  Regression tests that must
   hold under both policies, telemetry parity between them, and the
   fixed-storage allocation contract that shared-memory recovery maps
   buffer ordinals to slots by. *)

module Packed = Arc_util.Packed
module Ring = Arc_obs.Ring
module Obs = Arc_obs.Obs
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let check = Alcotest.(check int)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

exception Fenced

module Policy_cases (R : Arc_core.Arc.BASE with module Mem = Arc_mem.Real_mem) =
struct
  let read_seq rd =
    R.read_with rd ~f:(fun buf len ->
        match P.validate buf ~len with
        | Ok seq -> seq
        | Error msg -> Alcotest.failf "torn read: %s" msg)

  (* An oversized direct write is rejected before it touches the
     coalescing stage: the staged write survives and a later flush
     publishes it. *)
  let test_rejected_write_keeps_stage () =
    let capacity = 8 in
    let reg = R.create ~readers:1 ~capacity ~init:(stamped ~seq:0 ~len:2) in
    let rd = R.reader reg 0 in
    R.write_coalesced reg ~max_pending:4 ~max_staleness:4
      ~src:(stamped ~seq:1 ~len:2) ~len:2;
    check "staged" 1 (R.pending_writes reg);
    let big = capacity + 1 in
    (match R.write reg ~src:(stamped ~seq:2 ~len:big) ~len:big with
    | () -> Alcotest.fail "oversized write accepted"
    | exception Invalid_argument _ -> ());
    check "stage kept" 1 (R.pending_writes reg);
    check "no batch committed" 0 (R.coalesced_batches reg);
    check "nothing published" 0 (R.writes reg);
    check "readers still see the initial value" 0 (read_seq rd);
    R.flush_coalesced reg;
    check "flush published" 1 (R.writes reg);
    check "stage drained" 0 (R.pending_writes reg);
    check "one batch" 1 (R.coalesced_batches reg);
    check "staged value visible" 1 (read_seq rd)

  (* A fenced-off direct write publishes nothing, so it must not
     retire the staged batch either. *)
  let test_fenced_write_keeps_stage () =
    let reg = R.create ~readers:1 ~capacity:8 ~init:(stamped ~seq:0 ~len:4) in
    let rd = R.reader reg 0 in
    R.write_coalesced reg ~max_pending:4 ~max_staleness:4
      ~src:(stamped ~seq:1 ~len:4) ~len:4;
    (match
       R.write_guarded reg
         ~guard:(fun () -> raise Fenced)
         ~src:(stamped ~seq:2 ~len:4) ~len:4
     with
    | () -> Alcotest.fail "guard did not abort the write"
    | exception Fenced -> ());
    check "stage kept" 1 (R.pending_writes reg);
    check "no batch committed" 0 (R.coalesced_batches reg);
    check "nothing published" 0 (R.writes reg);
    check "readers still see the initial value" 0 (read_seq rd);
    R.flush_coalesced reg;
    check "one batch" 1 (R.coalesced_batches reg);
    check "staged value visible" 1 (read_seq rd);
    (* The stage is now empty: an unguarded direct write is an ordinary
       write, not a batch. *)
    R.write reg ~src:(stamped ~seq:3 ~len:4) ~len:4;
    check "no further batch" 1 (R.coalesced_batches reg);
    check "direct write visible" 3 (read_seq rd)

  let suite ~label =
    [
      Alcotest.test_case (label ^ ": rejected write keeps staged writes") `Quick
        test_rejected_write_keeps_stage;
      Alcotest.test_case (label ^ ": fenced write keeps staged writes") `Quick
        test_fenced_write_keeps_stage;
    ]
end

module Fixed_cases = Policy_cases (Arc_core.Arc.Make (Arc_mem.Real_mem))
module Elastic_cases = Policy_cases (Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem))

(* --- telemetry parity ------------------------------------------------ *)

(* A substrate whose next [exchange] raises: the writer dies between
   its W1.5 journal entry and the W2 publish, leaving a journaled
   slot for the successor's [recover_crash]. *)
module Crash_mem = struct
  include Arc_mem.Real_mem

  exception Crash

  let armed = ref false

  let exchange a v =
    if !armed then begin
      armed := false;
      raise Crash
    end
    else exchange a v
end

module Dc = Arc_core.Arc_dynamic.Make (Crash_mem)

let names metrics = List.map (fun (m : Obs.metric) -> m.Obs.mname) metrics

let value metrics name =
  match List.find_opt (fun (m : Obs.metric) -> m.Obs.mname = name) metrics with
  | Some m -> int_of_float m.Obs.value
  | None -> Alcotest.failf "metric %s missing" name

let test_elastic_telemetry_parity () =
  let readers = 4 in
  let reg = Dc.create ~readers ~capacity:32 ~init:(stamped ~seq:0 ~len:4) in
  Dc.set_telemetry reg (Some (Dc.make_telemetry ~readers ()));
  let rd = Dc.reader reg 0 in
  for seq = 1 to 5 do
    let len = 4 * seq in
    Dc.write reg ~src:(stamped ~seq ~len) ~len;
    ignore (Dc.read_with rd ~f:(fun _ _ -> ()))
  done;
  check "writes" 5 (Dc.writes reg);
  Alcotest.(check bool) "write probes counted" true (Dc.write_probes reg >= 5);
  Crash_mem.armed := true;
  (match Dc.write reg ~src:(stamped ~seq:6 ~len:4) ~len:4 with
  | () -> Alcotest.fail "crash not injected"
  | exception Crash_mem.Crash -> ());
  check "journaled recovery quarantines one slot" 1 (Dc.recover_crash reg);
  let cur = Packed.index (Dc.Debug.current reg) in
  let other = if cur = 1 then 2 else 1 in
  Dc.quarantine reg other;
  (* The successor keeps writing around both retired slots. *)
  Dc.write reg ~src:(stamped ~seq:7 ~len:4) ~len:4;
  (match Dc.read_with rd ~f:(fun buf len -> P.validate buf ~len) with
  | Ok seq -> check "successor write visible" 7 seq
  | Error msg -> Alcotest.failf "torn: %s" msg);
  let codes = List.map (fun (e : Ring.entry) -> e.Ring.code) (Dc.trace reg) in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Ring.code_name code ^ " recorded")
        true (List.mem code codes))
    [
      Ring.code_slot_claim;
      Ring.code_publish;
      Ring.code_freeze;
      Ring.code_realloc;
      Ring.code_recover;
      Ring.code_quarantine;
    ];
  let metrics = Dc.metrics reg in
  check "arc_writes_total" 6 (value metrics "arc_writes_total");
  check "arc_write_probes_total" (Dc.write_probes reg)
    (value metrics "arc_write_probes_total");
  check "arc_quarantined_slots" 2 (value metrics "arc_quarantined_slots");
  check "arc_reallocations_total" (Dc.reallocations reg)
    (value metrics "arc_reallocations_total");
  check "arc_reclaimed_slots_total" 0 (value metrics "arc_reclaimed_slots_total");
  check "arc_footprint_words" (Dc.footprint_words reg)
    (value metrics "arc_footprint_words")

(* Fixed storage keeps exactly its register metric set. *)
let test_fixed_metric_set () =
  let module A = Arc_core.Arc.Make (Arc_mem.Real_mem) in
  let reg = A.create ~readers:2 ~capacity:8 ~init:(stamped ~seq:0 ~len:4) in
  A.write reg ~src:(stamped ~seq:1 ~len:4) ~len:4;
  Alcotest.(check (list string))
    "fixed-storage metrics"
    [
      "arc_writes_total";
      "arc_write_probes_total";
      "arc_quarantined_slots";
      "arc_coalesced_batches_total";
      "arc_coalesced_writes_total";
      "arc_coalesced_max_batch";
    ]
    (names (A.metrics reg))

(* --- the fixed-storage allocation contract -------------------------- *)

(* Records every buffer the register allocates, newest first. *)
module Alloc_mem = struct
  include Arc_mem.Real_mem

  let allocated = ref []

  let alloc words =
    let b = alloc words in
    allocated := b :: !allocated;
    b
end

module Af = Arc_core.Arc.Make (Alloc_mem)
module Ad = Arc_core.Arc_dynamic.Make (Alloc_mem)

let readers = 3
let capacity = 64

let varying_writes ~write =
  let rng = Arc_util.Splitmix.of_int 13 in
  for seq = 1 to 500 do
    let len = 1 + Arc_util.Splitmix.int rng capacity in
    write ~seq ~src:(stamped ~seq ~len) ~len
  done

(* [Shm_arc.recover] maps a convicted buffer ordinal to a slot index:
   fixed storage must allocate exactly N+2 buffers, in slot order, all
   inside [create], and never again. *)
let test_fixed_allocates_only_in_create () =
  Alloc_mem.allocated := [];
  let reg = Af.create ~readers ~capacity ~init:(stamped ~seq:0 ~len:8) in
  let by_ordinal = Array.of_list (List.rev !Alloc_mem.allocated) in
  check "N+2 buffers allocated by create" (readers + 2) (Array.length by_ordinal);
  let rds = Array.init readers (Af.reader reg) in
  varying_writes ~write:(fun ~seq ~src ~len ->
      Af.write reg ~src ~len;
      let rd = rds.(seq mod readers) in
      let buf, _ = Af.read_view rd in
      let slot = Packed.index (Af.Debug.current reg) in
      Alcotest.(check bool)
        (Printf.sprintf "write %d: slot %d is buffer ordinal %d" seq slot slot)
        true
        (buf == by_ordinal.(slot)));
  check "no allocation after create" (readers + 2) (List.length !Alloc_mem.allocated)

let test_elastic_reallocates () =
  Alloc_mem.allocated := [];
  let reg = Ad.create ~readers ~capacity ~init:(stamped ~seq:0 ~len:8) in
  let at_create = List.length !Alloc_mem.allocated in
  let rds = Array.init readers (Ad.reader reg) in
  varying_writes ~write:(fun ~seq ~src ~len ->
      Ad.write reg ~src ~len;
      ignore (Ad.read_view rds.(seq mod readers)));
  let after = List.length !Alloc_mem.allocated - at_create in
  Alcotest.(check bool)
    (Printf.sprintf "elastic storage reallocates (%d buffers after create)" after)
    true (after > 0);
  check "every reallocation went through the substrate" (Ad.reallocations reg)
    after

(* A fixed-storage write allocates no heap words: W1's slot scan
   included (no reader ever proposes a hint here, so every write
   scans).  The payload copy is the write's only cost that grows with
   its size. *)
let test_fixed_write_allocation_free () =
  let module R = Arc_core.Arc.Make (Arc_mem.Real_mem) in
  let reg = R.create ~readers:2 ~capacity:512 ~init:(stamped ~seq:0 ~len:512) in
  let src = stamped ~seq:1 ~len:512 in
  R.write reg ~src ~len:512;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    R.write reg ~src ~len:512
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "1000 writes allocate nothing" 0. (after -. before);
  Alcotest.(check bool) "every write went through the scan" true
    (R.write_probes reg >= 1001)

let suite =
  Fixed_cases.suite ~label:"fixed"
  @ Elastic_cases.suite ~label:"elastic"
  @ [
      Alcotest.test_case "elastic: telemetry parity after recovery" `Quick
        test_elastic_telemetry_parity;
      Alcotest.test_case "fixed: register metric set unchanged" `Quick
        test_fixed_metric_set;
      Alcotest.test_case "fixed: buffers allocated only in create, slot order"
        `Quick test_fixed_allocates_only_in_create;
      Alcotest.test_case "elastic: varying writes reallocate" `Quick
        test_elastic_reallocates;
      Alcotest.test_case "fixed: write is allocation-free" `Quick
        test_fixed_write_allocation_free;
    ]
