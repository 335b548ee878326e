type t = {
  data : int array;
  mutable len : int;
  mutable stride : int;
  mutable skip : int;
  mutable seen : int;
}

let create cap =
  if cap < 2 then invalid_arg "Samples.create: capacity below 2";
  { data = Array.make cap 0; len = 0; stride = 1; skip = 0; seen = 0 }

(* When the buffer fills, every other kept sample is dropped and the
   stride doubles, so the kept set stays a uniform subsample of the
   whole run without ever allocating. *)
let add t v =
  t.seen <- t.seen + 1;
  if t.skip > 0 then t.skip <- t.skip - 1
  else begin
    if t.len = Array.length t.data then begin
      let half = t.len / 2 in
      for i = 0 to half - 1 do
        Array.unsafe_set t.data i (Array.unsafe_get t.data (2 * i))
      done;
      t.len <- half;
      t.stride <- 2 * t.stride
    end;
    Array.unsafe_set t.data t.len v;
    t.len <- t.len + 1;
    t.skip <- t.stride - 1
  end

let seen t = t.seen

let to_array t = Array.sub t.data 0 t.len

let sorted t =
  let a = to_array t in
  Array.sort Int.compare a;
  a

(* Percentiles are in basis points (p99 = 9900) so that ranks are exact
   integer arithmetic. *)
let rank ~n bp = max 1 (((bp * n) + 9999) / 10000)

let beyond ~n bp = n - rank ~n bp

let ladder = [ 9999; 9990; 9900; 9500; 9000; 7500; 5000 ]

let tail_bp ?(target = 9900) n =
  List.find_opt (fun bp -> bp <= target && beyond ~n bp >= 10) ladder

let at sorted bp =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Samples.at: no samples";
  sorted.(rank ~n bp - 1)

type summary = { n : int; p50 : int; tail : int; tail_bp : int }

let summarize ?target t =
  let s = sorted t in
  let n = Array.length s in
  if n = 0 then None
  else
    match tail_bp ?target n with
    | Some bp -> Some { n; p50 = at s 5000; tail = at s bp; tail_bp = bp }
    | None -> Some { n; p50 = at s 5000; tail = s.(n - 1); tail_bp = 10000 }
