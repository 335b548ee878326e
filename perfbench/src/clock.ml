external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

external sleep_until : (int[@untagged]) -> unit
  = "pb_sleep_until_byte" "pb_sleep_until"

let minor_words () = int_of_float (Gc.minor_words ())

external allowed_cpus : unit -> int array = "pb_allowed_cpus"
external pin_cpu : int -> bool = "pb_pin_cpu"

(* Read once, before any thread pins itself: a pinned thread's own
   affinity would hide the other CPUs. *)
let cpus = allowed_cpus ()
let pin_nth_cpu n = n < Array.length cpus && pin_cpu cpus.(n)
external timer_slack : int -> bool = "pb_timer_slack"
