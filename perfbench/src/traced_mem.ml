(* A substrate that records a span around every [write_words] into
   [M] — the one payload copy a register write makes — on the calling
   domain's installed recorder.  Every other call is passed through
   untouched: a span costs two clock reads, far more than the load it
   would time, so the unit costs of loads and RMWs are calibrated in
   timed batches instead (see [Harness.calibrate_mem]), and the
   fabric's per-shard collect copies stay inside the snapshot's own
   span. *)

module Make (M : Arc_mem.Mem_intf.S) :
  Arc_mem.Mem_intf.S with type atomic = M.atomic and type buffer = M.buffer =
struct
  include M

  let name = "traced(" ^ M.name ^ ")"

  let write_words b ~src ~len =
    let sp = Spans.current () in
    Spans.enter sp;
    M.write_words b ~src ~len;
    Spans.leave sp Layer.mem_write_words
end
