(* Reader admission & churn (ISSUE 8): the leased identity pool, the
   gate over a real register (persistent handles vs the presence
   ledger), the lease-boundary races — depart-then-reclaim,
   reclaim-then-late-release, crash-without-depart — the Session
   integration ([Backpressured] as a typed terminal verdict), the
   all-or-rollback shard gate, a QCheck accounting model, and seeded
   vsched churn races over [Arc_dynamic] with storage reclaim live. *)

module Admission = Arc_resilience.Admission
module Pool = Admission.Pool
module RI = Arc_core.Register_intf
module Obs = Arc_obs.Obs
module Splitmix = Arc_util.Splitmix

(* --- the pool alone (manual clock) ----------------------------------- *)

let ticket p ~now =
  match Pool.admit p ~now with
  | RI.Admitted tk -> tk
  | RI.Backpressured _ -> Alcotest.fail "expected admission"

let counts p =
  let ev = Pool.events p in
  ( Obs.Admission.admitted_count ev,
    Obs.Admission.backpressured_count ev,
    Obs.Admission.departed_count ev,
    Obs.Admission.evicted_count ev )

let test_pool_validation () =
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Admission.Pool.create: capacity = 0") (fun () ->
      ignore (Pool.create ~capacity:0 ()))

let test_pool_admit_to_capacity () =
  let p = Pool.create ~capacity:3 () in
  let tks = List.init 3 (fun _ -> ticket p ~now:0) in
  let slots = List.sort_uniq compare (List.map (fun tk -> tk.Pool.slot) tks) in
  Alcotest.(check int) "three distinct identities" 3 (List.length slots);
  (match Pool.admit p ~now:1 with
  | RI.Backpressured bp ->
    Alcotest.(check int) "live reported" 3 bp.RI.live;
    Alcotest.(check int) "high water reported" 3 bp.RI.high_water;
    Alcotest.(check bool)
      (Printf.sprintf "retry_after %d positive" bp.RI.retry_after)
      true (bp.RI.retry_after >= 1)
  | RI.Admitted _ -> Alcotest.fail "fourth admit must refuse");
  Alcotest.(check int) "live" 3 (Pool.live p);
  let a, b, d, e = counts p in
  Alcotest.(check (list int)) "event counts" [ 3; 1; 0; 0 ] [ a; b; d; e ]

let test_pool_depart_frees_and_double_depart () =
  let p = Pool.create ~capacity:2 () in
  let tk = ticket p ~now:0 in
  let _tk2 = ticket p ~now:0 in
  Alcotest.(check bool) "depart frees" true (Pool.depart p tk);
  Alcotest.(check int) "live drops" 1 (Pool.live p);
  Alcotest.(check bool) "double depart refused" false (Pool.depart p tk);
  Alcotest.(check int) "live unchanged by the double" 1 (Pool.live p);
  (* The freed identity is re-admittable, and the {e old} ticket still
     cannot free it out from under the new tenant. *)
  let tk' = ticket p ~now:1 in
  Alcotest.(check bool) "stale ticket inert" false (Pool.depart p tk);
  Alcotest.(check bool) "new tenant holds" true (Pool.holds p tk');
  let a, _, d, e = counts p in
  Alcotest.(check (list int)) "admitted/departed/evicted" [ 3; 1; 0 ] [ a; d; e ]

(* reclaim-then-late-release at the pool: the lease sweep revokes a
   silent holder, a successor takes the identity, then the zombie's
   depart arrives — and must fail its generation CAS. *)
let test_pool_evict_then_late_depart () =
  let p = Pool.create ~lease:10 ~capacity:1 () in
  let tk = ticket p ~now:0 in
  Alcotest.(check int) "fresh lease survives the sweep" 0 (Pool.sweep p ~now:5);
  Alcotest.(check int) "expired lease evicted" 1 (Pool.sweep p ~now:11);
  Alcotest.(check int) "live zeroed" 0 (Pool.live p);
  Alcotest.(check bool) "ticket revoked" false (Pool.holds p tk);
  let tk' = ticket p ~now:12 in
  Alcotest.(check bool) "zombie depart fails" false (Pool.depart p tk);
  Alcotest.(check bool) "successor undisturbed" true (Pool.holds p tk');
  Alcotest.(check int) "successor counted live" 1 (Pool.live p);
  let a, _, d, e = counts p in
  Alcotest.(check (list int)) "admitted/departed/evicted" [ 2; 0; 1 ] [ a; d; e ]

let test_pool_renew_extends_lease () =
  let p = Pool.create ~lease:10 ~capacity:1 () in
  let tk = ticket p ~now:0 in
  Alcotest.(check bool) "renew accepted" true (Pool.renew p tk ~now:8);
  Alcotest.(check int) "renewed lease survives" 0 (Pool.sweep p ~now:15);
  Alcotest.(check int) "but not forever" 1 (Pool.sweep p ~now:19);
  Alcotest.(check bool) "renew after evict refused" false (Pool.renew p tk ~now:20)

let test_pool_depart_then_sweep_no_double_free () =
  let p = Pool.create ~lease:10 ~capacity:2 () in
  let tk = ticket p ~now:0 in
  Alcotest.(check bool) "departed" true (Pool.depart p tk);
  Alcotest.(check int) "sweep finds nothing to evict" 0 (Pool.sweep p ~now:100);
  Alcotest.(check int) "live still 0" 0 (Pool.live p);
  let a, _, d, e = counts p in
  Alcotest.(check (list int)) "no phantom eviction" [ 1; 1; 0 ] [ a; d; e ]

(* A pool full of corpses is not a full pool: admission under pressure
   sweeps before refusing. *)
let test_pool_sweep_on_pressure () =
  let p = Pool.create ~lease:10 ~capacity:1 () in
  let _abandoned = ticket p ~now:0 in
  (match Pool.admit p ~now:20 with
  | RI.Admitted _ -> ()
  | RI.Backpressured _ -> Alcotest.fail "admit must reclaim the corpse");
  let a, b, d, e = counts p in
  Alcotest.(check (list int)) "evicted on the admit path" [ 2; 0; 0; 1 ]
    [ a; b; d; e ]

let test_pool_waiting_room () =
  let p = Pool.create ~capacity:1 () in
  Alcotest.(check bool) "room 0 rejects" false (Pool.enter_room p ~room:0);
  Alcotest.(check bool) "first waiter parks" true (Pool.enter_room p ~room:2);
  Alcotest.(check bool) "second waiter parks" true (Pool.enter_room p ~room:2);
  Alcotest.(check bool) "room full" false (Pool.enter_room p ~room:2);
  Alcotest.(check int) "occupancy" 2 (Pool.waiting p);
  Pool.leave_room p;
  Alcotest.(check bool) "freed seat reusable" true (Pool.enter_room p ~room:2);
  Pool.leave_room p;
  Pool.leave_room p;
  Alcotest.(check int) "room drained" 0 (Pool.waiting p)

let test_pool_high_water_is_peak () =
  let p = Pool.create ~capacity:4 () in
  let tk1 = ticket p ~now:0 in
  let tk2 = ticket p ~now:0 in
  Alcotest.(check int) "peak of two" 2 (Pool.high_water p);
  ignore (Pool.depart p tk1);
  ignore (Pool.depart p tk2);
  ignore (ticket p ~now:1);
  Alcotest.(check int) "peak survives the drain" 2 (Pool.high_water p);
  Alcotest.(check int) "live tells the present" 1 (Pool.live p)

(* --- the gate over a real Arc register ------------------------------- *)

module R = Arc_core.Arc.Make (Arc_mem.Real_mem)
module Gate = Admission.Make (R)
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

let read_seq rd =
  R.read_with rd ~f:(fun buffer len ->
      match P.validate buffer ~len with
      | Ok seq -> seq
      | Error msg -> Alcotest.fail msg)

let gate_env ?(room = 0) ?(lease = 0) ?on_release ~readers () =
  let words = 4 in
  let t = ref 0 in
  let reg =
    R.create ~readers ~capacity:words ~init:(stamped ~seq:0 ~len:words)
  in
  let gate =
    Gate.create ~room ~lease ?on_release
      ~now:(fun () -> !t)
      ~sleep:(fun d -> t := !t + d)
      ~base:0 ~capacity:readers reg
  in
  (t, words, reg, gate)

(* Fifty tenancies through two identities: the presence ledger must
   see two immortal readers, not fifty — slack exactly 0 at the end.
   (Minting a handle per tenant corrupts it; the soak's gate-bypass
   control convicts that.) *)
let test_gate_handle_reuse_keeps_ledger_balanced () =
  let t, words, reg, gate = gate_env ~readers:2 () in
  for i = 1 to 50 do
    incr t;
    match Gate.admit gate with
    | RI.Backpressured _ -> Alcotest.fail "gate has free identities"
    | RI.Admitted tk ->
      R.write reg ~src:(stamped ~seq:i ~len:words) ~len:words;
      Alcotest.(check int) "fresh value through the leased handle" i
        (read_seq (Gate.reader gate tk));
      ignore (Gate.depart gate tk)
  done;
  Alcotest.(check int) "presence slack 0 after 50 tenancies" 0
    (R.Debug.presence_slack reg);
  Alcotest.(check int) "one identity at a time" 1 (Gate.high_water gate);
  let a, _, d, _ = counts (Gate.pool gate) in
  Alcotest.(check (list int)) "every tenancy closed" [ 50; 50 ] [ a; d ]

(* crash-without-depart: a kill-9'd tenant costs one identity for one
   lease; the sweep reclaims it, the next tenant reuses the {e same}
   handle, and the ledger never notices anyone died. *)
let test_gate_crash_without_depart () =
  let t, words, reg, gate = gate_env ~lease:10 ~readers:1 () in
  R.write reg ~src:(stamped ~seq:1 ~len:words) ~len:words;
  let victim =
    match Gate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "empty gate refused"
  in
  Alcotest.(check int) "victim reads" 1 (read_seq (Gate.reader gate victim));
  (* …kill -9: no depart, no renew… *)
  t := 15;
  Alcotest.(check int) "sweep reclaims the corpse" 1 (Gate.sweep gate);
  (match Gate.guard gate victim () with
  | Some bp -> Alcotest.(check bool) "pressure visible" true (bp.RI.retry_after >= 1)
  | None -> Alcotest.fail "revoked ticket must be refused by its guard");
  let heir =
    match Gate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "reclaimed identity not reusable"
  in
  Alcotest.(check (option Alcotest.reject)) "heir's guard admits" None
    (Gate.guard gate heir ());
  Alcotest.(check int) "same identity, same handle" 0 (Gate.identity gate heir);
  R.write reg ~src:(stamped ~seq:2 ~len:words) ~len:words;
  Alcotest.(check int) "heir reads through the reused handle" 2
    (read_seq (Gate.reader gate heir));
  Alcotest.(check bool) "victim's late depart inert" false
    (Gate.depart gate victim);
  Alcotest.(check int) "heir still live" 1 (Gate.live gate);
  Alcotest.(check int) "ledger balanced across the crash" 0
    (R.Debug.presence_slack reg)

let test_gate_admit_wait_departure () =
  let words = 4 in
  let t = ref 0 in
  let on_sleep = ref (fun () -> ()) in
  let reg = R.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let gate =
    Gate.create ~room:1
      ~now:(fun () -> !t)
      ~sleep:(fun d ->
        t := !t + d;
        !on_sleep ())
      ~base:0 ~capacity:1 reg
  in
  let holder =
    match Gate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "empty gate refused"
  in
  (* The holder departs while the arrival is parked in the waiting
     room: the retry must win the freed identity. *)
  on_sleep :=
    (fun () ->
      on_sleep := (fun () -> ());
      ignore (Gate.depart gate holder));
  (match Gate.admit_wait gate with
  | RI.Admitted tk -> Alcotest.(check int) "identity recycled" 0 (Gate.identity gate tk)
  | RI.Backpressured _ -> Alcotest.fail "departure freed the identity");
  Alcotest.(check int) "waiting room drained" 0 (Pool.waiting (Gate.pool gate));
  Alcotest.(check bool) "the wait slept" true (!t > 0)

let test_gate_admit_wait_deadline () =
  let _t, _words, _reg, gate = gate_env ~room:1 ~readers:1 () in
  let _holder = Gate.admit gate in
  (match Gate.admit_wait ~deadline:50 gate with
  | RI.Backpressured bp -> Alcotest.(check int) "still saturated" 1 bp.RI.live
  | RI.Admitted _ -> Alcotest.fail "nobody departed");
  Alcotest.(check int) "waiting room drained on expiry" 0
    (Pool.waiting (Gate.pool gate))

let test_gate_admit_wait_no_room () =
  let t, _words, _reg, gate = gate_env ~room:0 ~readers:1 () in
  let _holder = Gate.admit gate in
  (match Gate.admit_wait ~deadline:1000 gate with
  | RI.Backpressured _ -> ()
  | RI.Admitted _ -> Alcotest.fail "nobody departed");
  Alcotest.(check int) "room 0 never sleeps" 0 !t

let test_gate_on_release_fires () =
  let released = ref 0 in
  let t, _words, _reg, gate =
    gate_env ~lease:10 ~readers:2 ~on_release:(fun () -> incr released) ()
  in
  let tk =
    match Gate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "empty gate refused"
  in
  ignore (Gate.depart gate tk);
  Alcotest.(check int) "depart fires on_release" 1 !released;
  Alcotest.(check int) "idle sweep evicts nothing" 0 (Gate.sweep gate);
  Alcotest.(check int) "idle sweep stays silent" 1 !released;
  let _abandoned = Gate.admit gate in
  t := 20;
  Alcotest.(check int) "sweep evicts the corpse" 1 (Gate.sweep gate);
  Alcotest.(check int) "eviction fires on_release" 2 !released

(* depart-then-reclaim over [Arc_dynamic]: a departed tenant's handle
   keeps pinning its last slot (by design — the identity is immortal),
   the writer's storage reclaim revokes that slot's buffer, and the
   next tenant of the same identity must read clean through the very
   same handle. *)
module DR = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem)
module DRGate = Admission.Make (DR)

(* [DR.Mem] is [Real_mem] too, so [P] validates its buffers as-is. *)
let read_seq_dr rd =
  DR.read_with rd ~f:(fun buffer len ->
      match P.validate buffer ~len with
      | Ok seq -> seq
      | Error msg -> Alcotest.fail msg)

let test_gate_depart_then_reclaim_storage () =
  let words = 4 in
  let t = ref 0 in
  let reg = DR.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let gate =
    DRGate.create
      ~now:(fun () -> !t)
      ~sleep:(fun d -> t := !t + d)
      ~base:0 ~capacity:1 reg
  in
  let tk =
    match DRGate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "empty gate refused"
  in
  DR.write reg ~src:(stamped ~seq:1 ~len:words) ~len:words;
  Alcotest.(check int) "tenant pins a slot by reading" 1
    (read_seq_dr (DRGate.reader gate tk));
  ignore (DRGate.depart gate tk);
  (* The handle still pins its slot; twenty writes supersede it, then
     the writer revokes its storage. *)
  for i = 2 to 21 do
    DR.write reg ~src:(stamped ~seq:i ~len:words) ~len:words
  done;
  Alcotest.(check bool) "reclaim revokes the pinned slot" true
    (DR.reclaim_stale reg ~lease:5 >= 1);
  Alcotest.(check bool) "live buffers within N + 2" true
    (DR.live_buffers reg <= 1 + 2);
  incr t;
  let tk' =
    match DRGate.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ -> Alcotest.fail "identity not freed by depart"
  in
  Alcotest.(check int) "next tenant reads clean post-reclaim" 21
    (read_seq_dr (DRGate.reader gate tk'));
  Alcotest.(check int) "ledger balanced" 0 (DR.Debug.presence_slack reg)

(* --- Session integration: refusal as a typed verdict ----------------- *)

module S = Arc_resilience.Session.Make (R)

let get_seq buffer len =
  match P.validate buffer ~len with
  | Ok seq -> seq
  | Error msg -> Alcotest.fail msg

let test_session_backpressured_then_stale () =
  let words = 4 in
  let t = ref 0 in
  let refuse = ref None in
  let reg = R.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let s =
    S.create
      ~admission:(fun () -> !refuse)
      ~max_stale:100
      ~now:(fun () -> !t)
      ~capacity:words (R.reader reg 0)
  in
  let bp = { RI.retry_after = 7; live = 1; high_water = 1 } in
  (* No snapshot yet: the refusal is terminal and typed. *)
  refuse := Some bp;
  (match S.read_with s ~f:get_seq with
  | S.Backpressured b -> Alcotest.(check int) "verdict carried" 7 b.RI.retry_after
  | _ -> Alcotest.fail "expected Backpressured (no snapshot)");
  (* Admitted again: a fresh read primes the snapshot. *)
  refuse := None;
  R.write reg ~src:(stamped ~seq:5 ~len:words) ~len:words;
  (match S.read_with s ~f:get_seq with
  | S.Fresh 5 -> ()
  | _ -> Alcotest.fail "expected Fresh 5");
  (* Refused with an admissible snapshot: degrade to Stale, not
     Backpressured — the session serves what it has. *)
  refuse := Some bp;
  t := !t + 20;
  (match S.read_with s ~f:get_seq with
  | S.Stale { value = 5; age = 20 } -> ()
  | _ -> Alcotest.fail "expected Stale 5 aged 20");
  (* Snapshot past max_stale: back to the typed verdict. *)
  t := !t + 200;
  (match S.read_with s ~f:get_seq with
  | S.Backpressured _ -> ()
  | _ -> Alcotest.fail "inadmissible snapshot must not be served")

(* --- all-or-rollback across shard gates ------------------------------ *)

let test_shards_all_or_rollback () =
  let sh =
    Admission.Shards.create
      [| Pool.create ~capacity:2 (); Pool.create ~capacity:1 ();
         Pool.create ~capacity:2 () |]
  in
  let pools = Admission.Shards.pools sh in
  (* Choke the middle shard: the scanner must end up holding nothing. *)
  let blocker = ticket pools.(1) ~now:0 in
  (match Admission.Shards.admit_all sh ~now:1 with
  | RI.Backpressured _ -> ()
  | RI.Admitted _ -> Alcotest.fail "middle shard is saturated");
  Alcotest.(check (list int)) "partial admissions rolled back" [ 0; 1; 0 ]
    (Array.to_list (Array.map Pool.live pools));
  ignore (Pool.depart pools.(1) blocker);
  let tks =
    match Admission.Shards.admit_all sh ~now:2 with
    | RI.Admitted tks -> tks
    | RI.Backpressured _ -> Alcotest.fail "all shards free"
  in
  Alcotest.(check (list int)) "one identity per shard" [ 1; 1; 1 ]
    (Array.to_list (Array.map Pool.live pools));
  Alcotest.(check int) "depart_all frees all" 3
    (Admission.Shards.depart_all sh tks);
  Alcotest.(check (list int)) "fully drained" [ 0; 0; 0 ]
    (Array.to_list (Array.map Pool.live pools));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Admission.Shards.depart_all: ticket count <> shard count")
    (fun () -> ignore (Admission.Shards.depart_all sh [| blocker |]))

(* --- QCheck: ticket accounting model --------------------------------- *)

(* Random admit/depart/sweep/clock-advance traffic against a capacity-4
   lease-15 pool; after every step: admitted − departed − evicted =
   live, 0 ≤ live ≤ capacity, high_water monotone and ≤ capacity. *)
let prop_ticket_accounting =
  QCheck.Test.make ~name:"admitted − departed − evicted = live" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 20)))
    (fun ops ->
      let cap = 4 in
      let p = Pool.create ~lease:15 ~capacity:cap () in
      let now = ref 0 in
      let held = ref [] in
      let peak = ref 0 in
      let ok = ref true in
      let audit () =
        let a, _, d, e = counts p in
        let live = Pool.live p in
        if a - d - e <> live then ok := false;
        if live < 0 || live > cap then ok := false;
        let h = Pool.high_water p in
        if h < !peak || h > cap then ok := false;
        peak := h
      in
      List.iter
        (fun (kind, v) ->
          (match kind with
          | 0 -> (
            match Pool.admit p ~now:!now with
            | RI.Admitted tk -> held := tk :: !held
            | RI.Backpressured _ -> ())
          | 1 -> (
            match !held with
            | [] -> ()
            | l ->
              let i = v mod List.length l in
              let tk = List.nth l i in
              held := List.filteri (fun j _ -> j <> i) l;
              (* false just means the sweep evicted it first *)
              ignore (Pool.depart p tk))
          | 2 -> ignore (Pool.sweep p ~now:!now)
          | _ -> now := !now + v + 1);
          audit ())
        ops;
      !ok)

(* --- seeded vsched churn races over Arc_dynamic ---------------------- *)

module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module SM = Arc_vsched.Sim_mem
module D = Arc_core.Arc_dynamic.Make (SM)
module DGate = Admission.Make (D)

(* One seeded run: a writer with auto storage-reclaim, a janitor
   sweeping expired ticket leases, and five lanes churning through a
   three-identity gate — renewing while they read, abandoning
   (kill-without-depart) a third of the time.  The gate must keep
   every [Saturated] from escaping, keep the ticket accounts exact,
   and leave the presence ledger balanced. *)
let churn_race ~seed =
  let words = 4 in
  let cap = 3 in
  let lease = 400 in
  let lanes = 5 in
  let reg = D.create ~readers:cap ~capacity:words ~init:(Array.make words 0) in
  D.set_lease reg (Some 8);
  let gate =
    DGate.create ~lease ~now:Sched.now ~sleep:Sched.sleep ~base:0 ~capacity:cap
      reg
  in
  let lanes_done = ref 0 in
  let escaped = ref 0 in
  let torn = ref 0 in
  let writer () =
    for s = 1 to 150 do
      D.write reg ~src:(Array.make words s) ~len:words;
      Sched.cede ()
    done
  in
  let janitor () =
    while !lanes_done < lanes do
      ignore (DGate.sweep gate);
      Sched.sleep (lease / 2)
    done
  in
  let lane k () =
    let rng = Splitmix.of_int ((seed * 31) + k) in
    (try
       for _arrival = 1 to 12 do
         match DGate.admit gate with
         | RI.Backpressured bp -> Sched.sleep bp.RI.retry_after
         | RI.Admitted tk ->
           let rd = DGate.reader gate tk in
           (try
              for _r = 1 to 1 + Splitmix.int rng 4 do
                match DGate.guard gate tk () with
                | Some _ -> raise Exit (* evicted underfoot: stop reading *)
                | None ->
                  ignore (DGate.renew gate tk);
                  D.read_with rd ~f:(fun buf len ->
                      let v0 = SM.read_word buf 0 in
                      for i = 1 to len - 1 do
                        if SM.read_word buf i <> v0 then incr torn
                      done);
                  Sched.sleep (1 + Splitmix.int rng 20)
              done
            with Exit -> ());
           (* kill-without-depart one tenancy in three *)
           if Splitmix.int rng 3 > 0 then ignore (DGate.depart gate tk)
       done
     with RI.Saturated _ -> incr escaped);
    incr lanes_done
  in
  let fibers =
    Array.append [| writer; janitor |] (Array.init lanes (fun k -> lane k))
  in
  let outcome =
    Sched.run ~max_steps:2_000_000 ~strategy:(Strategy.random ~seed) fibers
  in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: all fibers finished" seed)
    0 outcome.Sched.unfinished;
  Alcotest.(check int) (Printf.sprintf "seed %d: Saturated escapes" seed) 0 !escaped;
  Alcotest.(check int) (Printf.sprintf "seed %d: torn reads" seed) 0 !torn;
  let a, _, d, e = counts (DGate.pool gate) in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: accounts (%d − %d − %d)" seed a d e)
    (DGate.live gate) (a - d - e);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: high water %d ≤ capacity" seed
       (DGate.high_water gate))
    true
    (DGate.high_water gate <= cap);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: live buffers %d ≤ N + 2" seed (D.live_buffers reg))
    true
    (D.live_buffers reg <= cap + 2);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: presence slack" seed)
    0
    (D.Debug.presence_slack reg);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: a free slot remains" seed)
    true
    (D.Debug.free_slot_exists reg)

let test_churn_races () =
  for seed = 0 to 7 do
    churn_race ~seed
  done

(* --- registry -------------------------------------------------------- *)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "pool: create validation" test_pool_validation;
    t "pool: admit to capacity, then backpressure" test_pool_admit_to_capacity;
    t "pool: depart frees, double depart inert" test_pool_depart_frees_and_double_depart;
    t "pool: evict then late depart (reclaim-then-late-release)"
      test_pool_evict_then_late_depart;
    t "pool: renew extends the lease" test_pool_renew_extends_lease;
    t "pool: depart then sweep, no double free"
      test_pool_depart_then_sweep_no_double_free;
    t "pool: admission pressure sweeps corpses" test_pool_sweep_on_pressure;
    t "pool: bounded waiting room" test_pool_waiting_room;
    t "pool: high water is the peak" test_pool_high_water_is_peak;
    t "gate: handle reuse keeps the ledger balanced"
      test_gate_handle_reuse_keeps_ledger_balanced;
    t "gate: crash without depart survivable" test_gate_crash_without_depart;
    t "gate: admit_wait wins a freed identity" test_gate_admit_wait_departure;
    t "gate: admit_wait respects the deadline" test_gate_admit_wait_deadline;
    t "gate: admit_wait without a room never sleeps" test_gate_admit_wait_no_room;
    t "gate: on_release fires on depart and evict" test_gate_on_release_fires;
    t "gate: depart then storage reclaim (Arc_dynamic)"
      test_gate_depart_then_reclaim_storage;
    t "session: Backpressured verdict, Stale degradation"
      test_session_backpressured_then_stale;
    t "shards: all-or-rollback admission" test_shards_all_or_rollback;
    QCheck_alcotest.to_alcotest prop_ticket_accounting;
    Alcotest.test_case "vsched: seeded churn races over Arc_dynamic" `Slow
      test_churn_races;
  ]
