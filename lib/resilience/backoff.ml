module Splitmix = Arc_util.Splitmix

type t = { rng : Splitmix.t; mutable attempt : int }

let base = 4
let cap = 1024
let create ~seed () = { rng = Splitmix.of_int seed; attempt = 0 }

let next t =
  (* Ceiling grows as base·2ⁿ until it saturates at cap; the shift is
     clamped so a long wait can't overflow the exponent. *)
  let shift = min t.attempt 20 in
  let ceiling = min cap (base * (1 lsl shift)) in
  t.attempt <- t.attempt + 1;
  1 + Splitmix.int t.rng ceiling
