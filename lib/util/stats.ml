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

(* Basis points keep ranks exact integer arithmetic. *)
let rank ~n bp = max 1 (((bp * n) + 9999) / 10000)

let supports ~n bp = n > 0 && (bp <= 5000 || bp >= 10000 || n - rank ~n bp >= 10)

let ladder = [ 9999; 9990; 9900; 9500; 9000; 7500; 5000 ]

let tail_bp ?(target = 9900) n =
  List.find_opt (fun bp -> bp <= target && n - rank ~n bp >= 10) ladder

let at sorted bp = sorted.(rank ~n:(Array.length sorted) bp - 1)

let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile xs bp =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if bp < 0 || bp > 10000 then invalid_arg "Stats.percentile: bp out of [0,10000]";
  at (sorted_copy xs) bp

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  tail : float;
  tail_bp : int;
}

let summarize ?target xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let s = sorted_copy xs in
  let tail_bp = Option.value (tail_bp ?target n) ~default:10000 in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = s.(0);
    max = s.(n - 1);
    p50 = at s 5000;
    tail = at s tail_bp;
    tail_bp;
  }
