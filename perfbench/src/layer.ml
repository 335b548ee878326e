(* Span names of the traced run: the two harness roots, then one name
   per call into a layer.  A read of the ARC register is named by its
   outcome once it returns (a changed seq means the reader had to
   resubscribe: the R3+R4 slow path). *)

let read = 0
let write = 1
let arc_read_hit = 2
let arc_read_miss = 3
let arc_write = 4
let payload_stamp = 5
let payload_decode = 6
let payload_validate = 7
let mem_write_words = 8
let fabric_snapshot = 9
let fabric_write = 10
let fabric_shard_copy = 11

let names =
  [|
    "read";
    "write";
    "arc.read_hit";
    "arc.read_miss";
    "arc.write";
    "payload.stamp";
    "payload.decode_seq";
    "payload.validate";
    "mem.write_words";
    "fabric.snapshot_certified";
    "fabric.write";
    "fabric.shard_copy";
  |]
