(** ARC with the §3.4 free-slot hint disabled — the ablation arm of
    experiment E5.  Reads never post proposals and every write
    free-slot search is a linear scan (O(N) worst case, as the paper
    notes writes would be without the optimization). *)

val algorithm : string

(** {!Arc.Make} with [create] fixed to [~use_hint:false]: the whole of
    {!Arc.BASE}, white-box {!Arc.BASE.Debug} included, so fault
    campaigns audit it like ARC. *)
module Make (M : Arc_mem.Mem_intf.S) : Arc.BASE with module Mem = M
