(* Wait-free telemetry cells and metric exposition (ISSUE 5).

   The observability layer's contract is the same as the register's:
   recording must never block, never retry, and — on the read fast
   path — never execute an RMW instruction.  The design that delivers
   it is the one the paper uses for presence accounting: give every
   domain its own word.

   A {!Cell} is a single-writer counter: a plain [mutable int] record
   field on the host heap, laid out wherever promotion puts it (no
   cache-line isolation: OCaml 5.1 cannot give a heap block its own
   line, DESIGN.md §6).  The owner increments it with
   a plain load + store — one or two cycles, no fence, no RMW — and
   any other domain may read it concurrently.  A racy read of a
   word-sized field cannot tear in OCaml's memory model (it returns
   some previously written value), so observers see a possibly-stale
   but never-corrupt count; joining the owner (or any other
   happens-before edge) makes the value exact.  This is deliberately
   NOT an [Atomic]: a seq-cst store carries a full fence on x86, which
   is most of an RMW's cost — exactly the tax the §3.3 fast path
   exists to avoid.

   Cells live on the host heap, outside the register's memory
   substrate [M], for two reasons: counting must not add scheduling
   points under the virtual scheduler (enabling telemetry must not
   change any schedule, and therefore no checker-visible history), and
   it must not add operations the {!Arc_mem.Counting} instance would
   charge to the algorithm.  The vsched counter test in
   [test/test_obs.ml] verifies both. *)

module Cell = struct
  type t = { mutable v : int }

  let create () = { v = 0 }

  (* Owner-only: plain read-modify-write of a private word.  Not
     atomic, by design — see the module comment. *)
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let get c = c.v
  let reset c = c.v <- 0
end

module Group = struct
  type t = { name : string; help : string; cells : Cell.t array }

  let create ~name ~help n =
    if n < 1 then
      invalid_arg (Printf.sprintf "Obs.Group.create: %d cells (need >= 1)" n);
    { name; help; cells = Array.init n (fun _ -> Cell.create ()) }

  let cell t i = t.cells.(i)
  let domains t = Array.length t.cells
  let name t = t.name
  let help t = t.help
  let value t = Array.fold_left (fun acc c -> acc + Cell.get c) 0 t.cells
  let per_domain t = Array.map Cell.get t.cells
end

(* {1 Read outcomes}

   Reads resolve as fresh ([ok]) or, when the admission guard refused,
   served from the session's bounded-stale snapshot ([stale]).  Each
   class is its own single-writer cell, so a live-summary thread can
   read a session's outcomes mid-run with no possibility of a torn or
   half-merged read; campaign totals are summed into a fresh counter
   with [merge_into] once the sessions' owners are joined. *)

module Outcomes = struct
  type t = { ok : Cell.t; stale : Cell.t }

  let create () = { ok = Cell.create (); stale = Cell.create () }
  let ok t = Cell.incr t.ok
  let stale t = Cell.incr t.stale
  let ok_count t = Cell.get t.ok
  let stale_count t = Cell.get t.stale

  (* Adds [src]'s counts to [dst]'s cells, so the caller must own
     [dst]; [src] is read with plain loads, exact once its owner is
     joined. *)
  let merge_into ~src ~dst =
    Cell.add dst.ok (ok_count src);
    Cell.add dst.stale (stale_count src)

  let pp ppf t =
    Format.fprintf ppf "@[<h>ok=%d, stale=%d@]" (ok_count t) (stale_count t)
end

(* {1 Snapshot outcomes}

   Counter cells for the fabric's cross-shard snapshot (ISSUE 6): each
   scanner owns one cell per outcome class, same single-writer
   discipline as {!Outcomes}.  [retries] counts failed probe passes —
   the quantity the wait-freedom bound (at most shards + 1 failed
   passes before a helping deposit must exist) caps, so a soak that
   watches it can falsify the bound. *)

module Scan = struct
  type t = {
    direct : Group.t;  (* clean double-collect snapshots *)
    borrowed : Group.t;  (* snapshots served from a helping deposit *)
    retries : Group.t;  (* failed probe passes (per-shard re-collects) *)
  }

  let create ~scanners =
    {
      direct =
        Group.create ~name:"fabric_snapshots_direct_total"
          ~help:"Snapshots certified by a clean probe pass" scanners;
      borrowed =
        Group.create ~name:"fabric_snapshots_borrowed_total"
          ~help:"Snapshots served from a writer's helping deposit" scanners;
      retries =
        Group.create ~name:"fabric_snapshot_retries_total"
          ~help:"Probe passes that failed and forced a re-collect" scanners;
    }

  let direct t i = Group.cell t.direct i
  let borrowed t i = Group.cell t.borrowed i
  let retries t i = Group.cell t.retries i
  let direct_count t = Group.value t.direct
  let borrowed_count t = Group.value t.borrowed
  let retry_count t = Group.value t.retries
end

(* {1 Metrics and exposition} *)

type kind = Counter | Gauge

type metric = {
  mname : string;
  mhelp : string;
  mkind : kind;
  labels : (string * string) list;
  value : float;
}

let metric ?(labels = []) ?(help = "") kind name value =
  { mname = name; mhelp = help; mkind = kind; labels; value }

let counter ?labels ?help name v =
  metric ?labels ?help Counter name (float_of_int v)

let gauge ?labels ?help name v = metric ?labels ?help Gauge name v

let quantiles ?help name h bps =
  List.filter_map
    (fun bp ->
      Arc_util.Histogram.percentile_opt h bp
      |> Option.map (fun v ->
             let q =
               if bp = 10000 then "1.0" else Printf.sprintf "%g" (float_of_int bp /. 1e4)
             in
             gauge name ~labels:[ ("quantile", q) ] ?help (float_of_int v)))
    bps

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

(* Prometheus text exposition format (version 0.0.4): HELP/TYPE once
   per family, one sample line per labelled metric.  Metrics are
   emitted in first-appearance order with same-name samples grouped,
   as the format requires. *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let pp_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let sample_line m =
  let labels =
    if m.labels = [] then ""
    else
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             m.labels)
      ^ "}"
  in
  Printf.sprintf "%s%s %s" m.mname labels (pp_value m.value)

let prometheus metrics =
  let b = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  let families =
    List.filter
      (fun m ->
        if Hashtbl.mem seen m.mname then false
        else begin
          Hashtbl.add seen m.mname ();
          true
        end)
      metrics
  in
  List.iter
    (fun fam ->
      if fam.mhelp <> "" then
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" fam.mname (escape_help fam.mhelp));
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" fam.mname (kind_name fam.mkind));
      List.iter
        (fun m ->
          if m.mname = fam.mname then begin
            Buffer.add_string b (sample_line m);
            Buffer.add_char b '\n'
          end)
        metrics)
    families;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json metrics =
  let one m =
    let labels =
      if m.labels = [] then ""
      else
        Printf.sprintf ", \"labels\": {%s}"
          (String.concat ", "
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "%S: \"%s\"" k (json_escape v))
                m.labels))
    in
    Printf.sprintf "    {\"name\": %S, \"kind\": %S%s, \"value\": %s}" m.mname
      (kind_name m.mkind) labels (pp_value m.value)
  in
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map one metrics))

(* {1 Admission accounting (ISSUE 8)}

   The reader admission gate's event counters.  Unlike {!Cell}s these
   are [Atomic.t]: admission events are {e multi}-writer by nature
   (any arriving thread admits, any departing thread departs, a
   sweeper evicts) and they sit on the connection-churn path, not the
   read fast path — a fenced RMW per arrival is noise next to the
   admission scan itself.  The family carries the canonical metric
   names every binary exposes: arc_admission_{admitted,backpressured,
   departed,evicted}_total. *)

module Admission = struct
  type t = {
    admitted : int Atomic.t;
    backpressured : int Atomic.t;
    departed : int Atomic.t;
    evicted : int Atomic.t;
  }

  let create () =
    {
      admitted = Atomic.make 0;
      backpressured = Atomic.make 0;
      departed = Atomic.make 0;
      evicted = Atomic.make 0;
    }

  let admitted t = Atomic.fetch_and_add t.admitted 1 |> ignore
  let backpressured t = Atomic.fetch_and_add t.backpressured 1 |> ignore
  let departed t = Atomic.fetch_and_add t.departed 1 |> ignore
  let evicted t = Atomic.fetch_and_add t.evicted 1 |> ignore
  let admitted_count t = Atomic.get t.admitted
  let backpressured_count t = Atomic.get t.backpressured
  let departed_count t = Atomic.get t.departed
  let evicted_count t = Atomic.get t.evicted

  let metrics ?labels t =
    [
      counter ?labels "arc_admission_admitted_total"
        ~help:"Reader admissions granted by the gate"
        (admitted_count t);
      counter ?labels "arc_admission_backpressured_total"
        ~help:"Admission attempts refused with a typed backpressure verdict"
        (backpressured_count t);
      counter ?labels "arc_admission_departed_total"
        ~help:"Tickets released by an explicit depart"
        (departed_count t);
      counter ?labels "arc_admission_evicted_total"
        ~help:"Expired tickets reclaimed by the lease sweep"
        (evicted_count t);
    ]
end
