(* Bucket b holds samples v with 2^(b-1) <= v < 2^b (bucket 0: v <= 0,
   bucket 1: v = 1, ...). *)

let nbuckets = Sys.int_size + 1

type t = {
  counts : int array;
  mutable total : int;
  mutable max_value : int;
}

let create () = { counts = Array.make nbuckets 0; total = 0; max_value = 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
    go 0 v
  end

let record t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  if v > t.max_value then t.max_value <- v

let count t = t.total
let max_value t = t.max_value

let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1
let bucket_lo b = if b <= 1 then b else (1 lsl (b - 1))

(* The rank-th smallest sample ({!Stats.rank}) lies in the first
   bucket whose cumulative count reaches the rank; the estimate
   interpolates linearly within that bucket by the rank's position
   among the bucket's own samples (position c of c lands on the
   bucket's upper bound, clamped to the recorded maximum), so it stays
   in the same power-of-two bucket as the exact order statistic. *)
let percentile t bp =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if bp < 0 || bp > 10000 then invalid_arg "Histogram.percentile: bp out of [0,10000]";
  let rank = Stats.rank ~n:t.total bp in
  let rec go b seen_before =
    if b >= nbuckets then t.max_value
    else begin
      let c = t.counts.(b) in
      if seen_before + c >= rank then begin
        let lo = bucket_lo b and hi = min (bucket_hi b) t.max_value in
        if hi <= lo then hi
        else begin
          let frac = float_of_int (rank - seen_before) /. float_of_int c in
          lo + int_of_float (Float.round (frac *. float_of_int (hi - lo)))
        end
      end
      else go (b + 1) (seen_before + c)
    end
  in
  go 0 0

let percentile_opt t bp =
  if Stats.supports ~n:t.total bp then Some (percentile t bp) else None

let merge_into ~src ~dst =
  Array.iteri (fun b c -> dst.counts.(b) <- dst.counts.(b) + c) src.counts;
  dst.total <- dst.total + src.total;
  if src.max_value > dst.max_value then dst.max_value <- src.max_value

let buckets t =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (bucket_lo b, bucket_hi b, t.counts.(b)) :: !acc
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (lo, hi, c) -> Format.fprintf ppf "[%d..%d]: %d@ " lo hi c)
    (buckets t);
  Format.fprintf ppf "total=%d, max=%d@]" t.total t.max_value
