(* Multi-topic feed over the sharded register fabric (ISSUE 6).

   One shard per topic (quotes, trades, risk limits, system status),
   one producer domain per topic writer, and consumer domains that
   need a {e consistent cross-topic view}: a trade count that matches
   the quote sequence it was risk-checked against.  Reading the four
   topics one by one can pair a new trade tape with an old risk
   limit; [Fabric.snapshot_certified] returns a vector of topic values
   that were all simultaneously published at one instant — wait-free,
   so neither producers nor other consumers are ever blocked.  Nobody
   elects over this fabric, so its configuration epoch never moves and
   every snapshot certifies.

     dune exec examples/feed_fabric.exe *)

module F = Arc_fabric.Fabric.Make (Arc_core.Arc.Make (Arc_mem.Real_mem))

(* Topics, one shard each.  With 2 writers, writer 0 owns the even
   shards (quotes, risk) and writer 1 the odd ones (trades, status). *)
let t_quotes = 0
let t_trades = 1
let t_risk = 2
let t_status = 3
let topics = 4
let words = 8

(* Every topic payload carries its own update sequence in word 0 and
   a derived field in word 1; producers keep topic pairs in lockstep
   (trades at most one update behind quotes), so any consistent
   cross-topic vector must satisfy the same invariant. *)
let encode src ~seq ~value =
  Array.fill src 0 words 0;
  src.(0) <- seq;
  src.(1) <- value

let () =
  let consumers = 2 in
  let updates = 5_000 in
  let fab =
    F.create ~shards:topics ~writers:2 ~readers:consumers ~capacity:words
      ~init:(Array.make words 0)
  in

  (* Producer 0: quotes then risk, risk derived from the quote seq it
     covers.  Producer 1: trades then status, likewise. *)
  let producer wid () =
    let w = F.writer fab wid in
    let src = Array.make words 0 in
    let a, b = if wid = 0 then (t_quotes, t_risk) else (t_trades, t_status) in
    for seq = 1 to updates do
      encode src ~seq ~value:(seq * 10);
      F.write w ~shard:a ~src ~len:words;
      encode src ~seq ~value:(seq * 10);
      F.write w ~shard:b ~src ~len:words
    done
  in

  let consumer id () =
    let sc = F.scanner fab id in
    let snaps = ref 0 and borrowed = ref 0 and skew = ref 0 in
    for _ = 1 to updates do
      let snap =
        match F.snapshot_certified sc with
        | Ok snap -> snap
        | Error _ -> failwith "certified snapshot failed with no elections running"
      in
      incr snaps;
      if F.borrowed snap then incr borrowed;
      (* The cross-topic invariant: each producer writes its pair
         back-to-back, so in any simultaneously-published vector the
         derived topic lags its source by at most one update. *)
      let lag src drv =
        F.shard_word snap src 0 - F.shard_word snap drv 0
      in
      let q = lag t_quotes t_risk and t = lag t_trades t_status in
      if q < 0 || q > 1 || t < 0 || t > 1 then incr skew
    done;
    (!snaps, !borrowed, !skew)
  in

  let producers = List.init 2 (fun w -> Domain.spawn (producer w)) in
  let consumer_domains = List.init consumers (fun i -> Domain.spawn (consumer i)) in
  List.iter Domain.join producers;
  let results = List.map Domain.join consumer_domains in

  List.iteri
    (fun i (snaps, borrowed, skew) ->
      Printf.printf
        "consumer %d: %d snapshots (%d borrowed from helping writers), %d \
         cross-topic invariant violations\n"
        i snaps borrowed skew;
      assert (skew = 0))
    results;
  Printf.printf
    "fabric: %d direct, %d borrowed, %d probe retries, %d helping deposits\n"
    (F.snapshots_direct fab)
    (F.snapshots_borrowed fab)
    (F.snapshot_retries fab) (F.deposits_made fab);
  print_endline "every cross-topic view was simultaneously published — OK"
