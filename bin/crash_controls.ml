(* The negative controls arc-crash runs after every campaign.

   Each demands that a judgement convicts a known-bad state, or the
   clean campaign proves nothing: the integrity scan must convict
   corrupted one-seat mappings, the checker must convict what a broken
   election would publish, and the reign pass must convict a snapshot
   splicing a newer reign under an older certified epoch.  All run
   in-process: what is under test is the judgement, not the kill.
   Each prints one verdict line and returns whether it convicted. *)

module Shm_mem = Arc_shm.Shm_mem
module Shm_arc = Arc_shm.Shm_arc
module Layout = Arc_shm.Shm_layout
module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Driver = Arc_report.Driver
module P0 = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let pp_convicted cs =
  if cs = [] then "0"
  else
    Printf.sprintf "%d(%s)" (List.length cs)
      (String.concat ","
         (List.map
            (fun (c : Shm_mem.conviction) ->
              Printf.sprintf "slot%d:%s@%d" c.ordinal
                (Shm_mem.reason_to_string c.why)
                c.seq)
            cs))

(* {1 Conviction controls}

   The integrity layer must convict known-bad mappings, or the clean
   campaign proves nothing.  Three corruptions — a flipped payload
   word, a torn trailer, a stale superblock — plus the clean mapping
   that must NOT be convicted. *)

let with_control_mapping ~dir name f =
  let path =
    Filename.concat dir
      (Printf.sprintf "arc-crash-ctl-%d-%s.shm" (Unix.getpid ()) name)
  in
  let m = Shm_mem.create ~path ~words:(1 lsl 14) in
  let init = Array.make 8 0 in
  P0.stamp init ~seq:0 ~len:8;
  let inst = Shm_arc.create m ~shards:1 ~readers:2 ~capacity:8 ~init in
  let module I = (val inst : Shm_arc.INSTANCE) in
  let src = Array.make 8 0 in
  for k = 1 to 5 do
    P0.stamp src ~seq:k ~len:8;
    I.R.write I.regs.(0) ~src ~len:8
  done;
  let verdict = f m in
  Shm_mem.close m;
  Sys.remove path;
  verdict

let newest_buffer m =
  let best = ref None in
  Shm_mem.iter_buffers m (fun (info : Shm_mem.buffer_info) ->
      match !best with
      | Some (b : Shm_mem.buffer_info) when b.end_seq >= info.end_seq -> ()
      | _ -> if info.end_seq > 0 then best := Some info);
  match !best with Some b -> b | None -> failwith "control: nothing published"

let conviction ~dir =
  let check name expect verdict =
    let ok = expect verdict in
    Printf.printf "conviction-control %s %s\n" name
      (match (ok, verdict) with
      | true, Ok (r : Shm_mem.recovery) when r.convicted = [] ->
          Printf.sprintf "INTACT (expected): %d intact, 0 convictions" r.intact
      | true, Ok r -> Printf.sprintf "CONVICTED (expected): %s" (pp_convicted r.convicted)
      | true, Error msg -> Printf.sprintf "CONVICTED (expected): %s" msg
      | false, Ok r ->
          Printf.sprintf "UNCONVICTED — integrity layer is vacuous (%s)"
            (pp_convicted r.convicted)
      | false, Error msg -> Printf.sprintf "unexpected whole-mapping conviction: %s" msg);
    ok
  in
  (* Corrupt a fresh mapping, then demand recovery's verdict. *)
  let control name tamper =
    with_control_mapping ~dir name (fun m ->
        tamper m;
        Shm_mem.recover m ~shard:0)
  and convicts why = function
    | Ok (r : Shm_mem.recovery) ->
        List.exists (fun (c : Shm_mem.conviction) -> c.why = why) r.convicted
    | Error _ -> false
  and refused = function Error _ -> true | Ok _ -> false in
  let flipped =
    control "flip" (fun m ->
        let at = (newest_buffer m).base + Layout.buf_header + 1 in
        Shm_mem.unsafe_set m at (Shm_mem.unsafe_get m at lxor 1))
    |> check "flipped-payload" (convicts Shm_mem.Checksum)
  in
  let torn =
    control "torn" (fun m ->
        Shm_mem.unsafe_set m ((newest_buffer m).base + Layout.buf_end) 0)
    |> check "torn-trailer" (convicts Shm_mem.Torn)
  in
  let stale =
    control "stale" (fun m -> Shm_mem.unsafe_set m Layout.sb_epoch 0)
    |> check "stale-superblock" refused
  in
  let skewed =
    control "version" (fun m ->
        Shm_mem.unsafe_set m Layout.sb_version (Layout.version - 1))
    |> check "stale-layout-version" refused
  in
  let clean =
    control "clean" ignore
    |> check "clean-mapping" (function
         | Ok (r : Shm_mem.recovery) -> r.convicted = [] && r.intact > 0
         | Error _ -> false)
  in
  flipped && torn && stale && skewed && clean

(* {1 Election controls}

   The election's safety argument (one writer per term, zombies
   fenced) must be FALSIFIABLE, or the clean campaign proves nothing
   about it.  Two arms, each simulating one way the argument
   could break and demanding the checker convicts the result.  Both
   run in-process over heap substrates: what is under test is the
   judgement, not the kill. *)

(* A logical clock, and a history of operations stamped against it:
   [timed kind ~thread op] runs [op] (which returns the seq written or
   read) between two ticks and records it; [check ()] judges the
   history so far. *)
let event_log () =
  let clock = ref 0 and events = ref [] in
  let tick () =
    incr clock;
    !clock
  in
  let timed kind ~thread op =
    let invoked = tick () in
    let seq = op () in
    events := History.event kind ~thread ~seq ~invoked ~returned:(tick ()) :: !events;
    seq
  in
  (timed, fun () -> Checker.check (History.of_events !events))

(* Split vote: candidate B's vote CAS LIES (reports success without
   storing — Fault_plan.Cas_lie through the fault-injecting memory),
   so A and B both believe they won term 1.  Under vote-only authority
   — writing without the epoch fence, which is exactly what the fence
   exists to forbid — their write sequences collide, and the merged
   history must be convicted. *)
let split_vote_control () =
  let module Mem = Arc_fault.Campaign.Mem in
  let module R = Arc_core.Arc.Make (Mem) in
  let module E = Arc_resilience.Election.Make (R) in
  let module P = Arc_workload.Payload.Make (Mem) in
  let capacity = 8 in
  let init = Array.make capacity 0 in
  P.stamp init ~seq:0 ~len:capacity;
  let seat = E.create ~readers:1 ~capacity ~init ~now:(fun () -> 0) ~lease:1 in
  let reg = E.register seat in
  let snap = E.observe seat in
  let won_a = E.request_vote ~from:snap seat ~candidate:0 <> None in
  (* Arm the lie AFTER A's honest vote: B's CAS is the ambient
     context's first rmw from here on. *)
  Mem.install
    (Arc_fault.Fault_plan.cas_lie ~fiber:0 ~nth:1 Arc_fault.Fault_plan.empty);
  Mem.set_ambient_fiber (Some 0);
  let won_b = E.request_vote ~from:snap seat ~candidate:1 <> None in
  Mem.set_ambient_fiber None;
  let stats = Mem.drain () in
  if not (won_a && won_b) || stats.Arc_fault.Fault_mem.cas_lies <> 1 then
    (false, "the lie did not produce a split vote (control is vacuous)")
  else begin
    let timed, check = event_log () in
    let src = Array.make capacity 0 in
    let write ~thread ~seq =
      ignore
        (timed History.Write ~thread (fun () ->
             P.stamp src ~seq ~len:capacity;
             R.write reg ~src ~len:capacity;
             seq))
    in
    (* Both reigns write "their" term-1 sequence. *)
    write ~thread:0 ~seq:1;
    write ~thread:1 ~seq:1;
    write ~thread:0 ~seq:2;
    write ~thread:1 ~seq:2;
    match check () with
    | Error v -> (true, Format.asprintf "%a" Checker.pp_violation v)
    | Ok _ -> (false, "merged split-vote history accepted")
  end

(* Dueling epochs: the deposed leader keeps trying to publish after
   losing its term.  The healthy path — its fenced write raising
   Fenced_out — is asserted as the non-vacuity guard; then the control
   BREAKS the rule by writing through the raw register underneath the
   fence, and a reader observing that late publish after the
   successor's writes must be convicted as a new/old inversion. *)
let dueling_epoch_control () =
  let module Mem = Arc_mem.Real_mem in
  let module R = Arc_core.Arc.Make (Mem) in
  let module E = Arc_resilience.Election.Make (R) in
  let module P = Arc_workload.Payload.Make (Mem) in
  let capacity = 8 in
  let init = Array.make capacity 0 in
  P.stamp init ~seq:0 ~len:capacity;
  let seat = E.create ~readers:1 ~capacity ~init ~now:(fun () -> 0) ~lease:1 in
  let timed, check = event_log () in
  let src = Array.make capacity 0 in
  let fwrite w ~thread ~seq =
    ignore
      (timed History.Write ~thread (fun () ->
           P.stamp src ~seq ~len:capacity;
           E.write w ~src ~len:capacity;
           seq))
  in
  let rd = E.reader seat 0 in
  let read ~thread =
    timed History.Read ~thread (fun () ->
        R.read_with rd ~f:(fun buf len ->
            match P.validate buf ~len with Ok s -> s | Error _ -> -1))
  in
  match E.campaign seat ~candidate:0 with
  | E.Lost _ -> (false, "leader's uncontested campaign lost (control is vacuous)")
  | E.Won { writer = w0; _ } -> (
      (* The leader's completed reign: writes 1..5 under term 1. *)
      for seq = 1 to 5 do
        fwrite w0 ~thread:0 ~seq
      done;
      match E.campaign seat ~candidate:1 with
      | E.Lost _ ->
          (false, "successor's campaign lost (control is vacuous)")
      | E.Won { writer = w1; _ } -> (
      (* Candidate 1's campaign deposed w0 the moment it won term 2. *)
      let zombified =
        (* The healthy path: the zombie's fenced write must abort. *)
        match fwrite w0 ~thread:0 ~seq:99 with
        | () -> false
        | exception Arc_resilience.Election.Fenced_out _ -> true
      in
      if not zombified then
        (false, "deposed leader's write was not fenced (control is vacuous)")
      else begin
        for seq = 6 to 10 do
          fwrite w1 ~thread:1 ~seq
        done;
        let before = read ~thread:2 in
        (* The broken zombie: publish its stale pending write (seq 6)
           THROUGH the raw register, underneath the fence.  Not
           recorded as a history event — the zombie is dead as far as
           the model knows; the damage must surface through what
           readers then observe. *)
        P.stamp src ~seq:6 ~len:capacity;
        R.write (E.register seat) ~src ~len:capacity;
        let after = read ~thread:2 in
        if before <> 10 || after <> 6 then
          ( false,
            Printf.sprintf
              "zombie publish not reader-visible (read %d then %d; control is \
               vacuous)"
              before after )
        else
          match check () with
          | Error v -> (true, Format.asprintf "%a" Checker.pp_violation v)
          | Ok _ -> (false, "zombie's late publish accepted by the checker")
      end))

let election () =
  let report name (convicted, detail) =
    Driver.control ("election-control " ^ name) ~convicted ~expected:detail
      ~unconvicted:("election safety is unfalsified: " ^ detail)
  in
  let sv = report "split-vote" (split_vote_control ()) in
  let de = report "dueling-epoch" (dueling_epoch_control ()) in
  sv && de

(* {1 Cross-reign control}

   The reign dimension must be FALSIFIABLE: construct a snapshot that
   is per-shard regular AND window-consistent — it would pass every
   pre-reign check — but splices a value published by reign 3 into a
   vector certified under epoch 2.  The checker must convict it as
   [Cross_reign], and must ACCEPT the same vector when certified under
   epoch 3 (the conviction is epoch-driven, not a formatting
   accident). *)
let cross_reign_verdict () =
  let w ~thread ~seq ~invoked ~returned =
    History.event History.Write ~thread ~seq ~invoked ~returned
  in
  let writes =
    [|
      History.of_events [ w ~thread:0 ~seq:1 ~invoked:10 ~returned:20 ];
      History.of_events
        [
          w ~thread:1 ~seq:1 ~invoked:10 ~returned:20;
          w ~thread:1 ~seq:2 ~invoked:30 ~returned:40;
        ];
    |]
  in
  let reigns =
    [
      { Checker.rshard = 0; first_seq = 1; config = 2 };
      { Checker.rshard = 1; first_seq = 1; config = 2 };
      { Checker.rshard = 1; first_seq = 2; config = 3 };
    ]
  in
  let snap sepoch =
    { Checker.sthread = 9; invoked = 35; returned = 50; observed = [| 1; 2 |]; sepoch }
  in
  match Checker.check_fabric ~reigns ~writes ~snapshots:[ snap 2 ] () with
  | Error (Checker.Cross_reign { shard = 1; config = 3; _ }) -> (
      match Checker.check_fabric ~reigns ~writes ~snapshots:[ snap 3 ] () with
      | Ok _ ->
          ( true,
            "reign-3 value in an epoch-2 snapshot convicted; same vector under \
             epoch 3 accepted" )
      | Error v ->
          ( false,
            Format.asprintf "epoch-3 certification wrongly convicted: %a"
              Checker.pp_fabric_violation v ))
  | Error v ->
      (false, Format.asprintf "wrong conviction: %a" Checker.pp_fabric_violation v)
  | Ok _ -> (false, "cross-reign torn snapshot accepted")

let cross_reign () =
  let convicted, detail = cross_reign_verdict () in
  Driver.control "fabric-control cross-reign" ~convicted ~expected:detail
    ~unconvicted:("the reign dimension is unfalsified: " ^ detail)
