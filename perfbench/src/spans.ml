type stat = {
  mutable count : int;
  mutable total : int;
  mutable self : int;
  mutable alloc : int;
  mutable children : int;
  mutable desc : int;
  selfs : Samples.t;
  totals : Samples.t;
}

let max_depth = 32

type t = {
  on : bool;
  tid : int;
  names : string array;
  stats : stat array;
  st_start : int array;
  st_words : int array;
  st_child : int array;
  st_child_words : int array;
  st_nchild : int array;
  st_desc : int array;
  mutable depth : int;
  raw_name : int array;
  raw_start : int array;
  raw_dur : int array;
  raw_self : int array;
  raw_alloc : int array;
  mutable nraw : int;  (* spans ended so far; the raw buffer keeps the latest *)
}

let per_name_samples = 1 lsl 14

let make ~on ~names ~tid ~raw =
  let n = Array.length names in
  let cap = if on then per_name_samples else 2 in
  let d () = Array.make max_depth 0 and r () = Array.make raw 0 in
  {
    on;
    tid;
    names;
    stats =
      Array.init n (fun _ ->
          {
            count = 0;
            total = 0;
            self = 0;
            alloc = 0;
            children = 0;
            desc = 0;
            selfs = Samples.create cap;
            totals = Samples.create cap;
          });
    st_start = d ();
    st_words = d ();
    st_child = d ();
    st_child_words = d ();
    st_nchild = d ();
    st_desc = d ();
    depth = 0;
    raw_name = r ();
    raw_start = r ();
    raw_dur = r ();
    raw_self = r ();
    raw_alloc = r ();
    nraw = 0;
  }

let create ~names ~tid ~raw = make ~on:true ~names ~tid ~raw
let disabled () = make ~on:false ~names:[||] ~tid:0 ~raw:0

let enter_at t ~ts ~words =
  let d = t.depth in
  t.st_start.(d) <- ts;
  t.st_words.(d) <- words;
  t.st_child.(d) <- 0;
  t.st_child_words.(d) <- 0;
  t.st_nchild.(d) <- 0;
  t.st_desc.(d) <- 0;
  t.depth <- d + 1

(* Self time is the span's duration minus the part its child spans
   cover; the same subtraction gives self-allocation. *)
let leave_at t ~ts ~words name =
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = ts - t.st_start.(d) in
  let alloc_total = words - t.st_words.(d) in
  let self = dur - t.st_child.(d) in
  let alloc = alloc_total - t.st_child_words.(d) in
  if d > 0 then begin
    t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) + alloc_total;
    t.st_nchild.(d - 1) <- t.st_nchild.(d - 1) + 1;
    t.st_desc.(d - 1) <- t.st_desc.(d - 1) + 1 + t.st_desc.(d)
  end;
  let s = t.stats.(name) in
  s.count <- s.count + 1;
  s.total <- s.total + dur;
  s.self <- s.self + self;
  s.alloc <- s.alloc + alloc;
  s.children <- s.children + t.st_nchild.(d);
  s.desc <- s.desc + t.st_desc.(d);
  Samples.add s.selfs self;
  Samples.add s.totals dur;
  let cap = Array.length t.raw_name in
  if cap > 0 then begin
    let i = t.nraw mod cap in
    t.raw_name.(i) <- name;
    t.raw_start.(i) <- t.st_start.(d);
    t.raw_dur.(i) <- dur;
    t.raw_self.(i) <- self;
    t.raw_alloc.(i) <- alloc
  end;
  t.nraw <- t.nraw + 1

let enter t =
  if t.on then begin
    let words = Clock.minor_words () in
    enter_at t ~ts:(Clock.now_ns ()) ~words
  end

let leave t name =
  if t.on then begin
    let ts = Clock.now_ns () in
    leave_at t ~ts ~words:(Clock.minor_words ()) name
  end

let key = Domain.DLS.new_key disabled
let current () = Domain.DLS.get key
let install t = Domain.DLS.set key t

let count t name = t.stats.(name).count
let total t name = t.stats.(name).total
let self t name = t.stats.(name).self
let alloc t name = t.stats.(name).alloc
let dropped t = max 0 (t.nraw - Array.length t.raw_name)

type overhead = { per_span : float; inside : float }

let no_overhead = { per_span = 0.; inside = 0. }

(* Each span costs [per_span] on the clock of the code around it, of
   which [inside] falls between its own two timestamps.  So a span's
   measured duration carries [inside] plus [per_span] for every
   descendant, and its self time carries [inside] plus
   [per_span - inside] for every direct child. *)
let calibrate () =
  let t = make ~on:true ~names:[| "empty" |] ~tid:0 ~raw:0 in
  let n = 20_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    enter t;
    leave t 0
  done;
  let per_span = float (Clock.now_ns () - t0) /. float n in
  { per_span; inside = float (total t 0) /. float n }

let sum ts f = List.fold_left (fun a t -> a + f t) 0 ts

let mean ts name f =
  let c = sum ts (fun t -> count t name) in
  if c = 0 then 0. else float (sum ts (fun t -> f t.stats.(name))) /. float c

let median ts name f =
  let a = Array.concat (List.map (fun t -> Samples.to_array (f t.stats.(name))) ts) in
  if a = [||] then None
  else begin
    Array.sort Int.compare a;
    Some (float a.(Samples.rank ~n:(Array.length a) 5000 - 1))
  end

let median_self ?(overhead = no_overhead) ts name =
  match median ts name (fun s -> s.selfs) with
  | None -> 0.
  | Some m ->
      m -. overhead.inside
      -. (mean ts name (fun s -> s.children) *. (overhead.per_span -. overhead.inside))

let median_total ?(overhead = no_overhead) ts name =
  match median ts name (fun s -> s.totals) with
  | None -> 0.
  | Some m -> m -. overhead.inside -. (mean ts name (fun s -> s.desc) *. overhead.per_span)


(* Chrome trace-event format: one complete ("X") event per kept span,
   microsecond timestamps relative to [origin]. *)
let write_chrome oc ~origin ts =
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun t ->
      let cap = Array.length t.raw_name in
      let kept = min t.nraw cap in
      for j = 0 to kept - 1 do
        let i = (t.nraw - kept + j) mod cap in
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_ns\":%d,\"alloc_words\":%d}}"
          t.names.(t.raw_name.(i)) t.tid
          (float (t.raw_start.(i) - origin) /. 1e3)
          (float t.raw_dur.(i) /. 1e3)
          t.raw_self.(i) t.raw_alloc.(i)
      done)
    ts;
  output_string oc "]}\n"
