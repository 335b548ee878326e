(** The campaign driver shared by [arc-crash], [arc-soak] and
    [arc-check --faults]/[--fabric]: derived run seeds, the seed loop,
    one violation
    line per failing run with the command that replays it, the fail
    log (a CI artifact), negative-control verdict lines, and the exit
    status. *)

val derive_seed : int -> int -> int
(** [derive_seed base k] is run [k]'s seed under base seed [base]:
    [base * 1_000_003 + k].  Printed seeds are derived ones, so a
    replay needs only the printed number. *)

val campaign :
  ?on_run:('r -> unit) ->
  raised:(seed:int -> string -> 'r) ->
  base:int ->
  runs:int ->
  (seed:int -> 'r) ->
  'r list
(** [campaign ~raised ~base ~runs run] runs [run ~seed] for runs
    [k = 1 .. runs] in order, [seed = derive_seed base k].  A run that
    raises [e] yields [raised ~seed "run raised: E"] instead.  Each
    result goes to [on_run] as it lands; all are returned in run
    order. *)

val violation : ?indent:int -> ?msg:string -> seed:int -> string -> string
(** [violation ~seed replay] renders
    ["violation [seed S]: MSG\n  replay: REPLAY\n"] (no [": MSG"]
    without [msg]), every line shifted right by [indent] spaces. *)

val fail_log : replay:(int -> string) -> int list -> string
(** One replay command per line, in ascending seed order, each seed
    once. *)

val report :
  ?indent:int ->
  ?fail_log:string ->
  replay:(int -> string) ->
  (int * string option) list ->
  unit
(** Print a {!violation} for each [(seed, message)] in order; when
    [fail_log] is given and there are violations, write {!fail_log}
    to that path and say so. *)

val control :
  string -> convicted:bool -> expected:string -> unconvicted:string -> bool
(** Print ["LABEL CONVICTED (expected): EXPECTED"] or
    ["LABEL UNCONVICTED — UNCONVICTED"]; return [convicted]. *)

val exit_status : failing:int -> controls_ok:bool -> int
(** 1 if any run failed, else 2 if a negative control went
    unconvicted, else 0. *)

val finish : failing:int -> controls_ok:bool -> unit
(** [exit] with {!exit_status} unless it is 0. *)
