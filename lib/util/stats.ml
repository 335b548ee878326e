type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p999 : float;
  ci95 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let m = mean xs in
  let sd = stddev xs in
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  {
    n;
    mean = m;
    stddev = sd;
    min = mn;
    max = mx;
    median = percentile xs 50.;
    p95 = percentile xs 95.;
    p999 = percentile xs 99.9;
    ci95 = 1.96 *. sd /. sqrt (float_of_int n);
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<h>mean=%.4g ±%.2g (sd=%.3g, n=%d, min=%.4g, max=%.4g)@]"
    s.mean s.ci95 s.stddev s.n s.min s.max

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
end
