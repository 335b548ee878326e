(* One producer process, one consumer process, one mmap'd file — the
   paper's single-writer fan-out crossing a real OS process boundary
   (DESIGN.md §6d).

   The register's words live in a file-backed shared mapping
   ({!Arc_shm.Shm_mem}), so "reader and writer run concurrently" no
   longer means "on sibling domains": here the producer is a forked
   child and the consumer is the parent, with nothing shared but the
   page cache.  The ARC code is {e unchanged} — the same functor body
   that runs over heap arrays runs over the mapping.

   Sharing discipline: build the register first, then fork.  Both
   sides inherit heap handles that point into the same file; a fresh
   process can [attach] the file afterwards for inspection, which the
   parent demonstrates at the end.

     dune exec examples/two_process_feed.exe *)

module Shm_mem = Arc_shm.Shm_mem
module Shm_arc = Arc_shm.Shm_arc
module P0 = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let updates = 5_000
let len = 512 (* 4 KiB snapshots — the paper's smallest register *)

let () =
  let path = Filename.temp_file "arc_two_process_feed" ".reg" in
  let m = Shm_mem.create ~path ~words:(1 lsl 16) in
  let init = Array.make len 0 in
  P0.stamp init ~seq:0 ~len;
  let inst = Shm_arc.create m ~shards:1 ~readers:1 ~capacity:len ~init in
  let module I = (val inst : Shm_arc.INSTANCE) in
  let module P = Arc_workload.Payload.Make (I.M) in
  match Unix.fork () with
  | 0 ->
      (* Producer: stamp-and-publish, paced to ~1 µs per snapshot so
         the consumer observes a live feed rather than only the end
         state. *)
      let src = Array.make len 0 in
      for seq = 1 to updates do
        P0.stamp src ~seq ~len;
        I.R.write I.regs.(0) ~src ~len;
        for _ = 1 to 400 do
          Domain.cpu_relax ()
        done
      done;
      Unix._exit 0
  | producer ->
      (* Consumer: read the freshest snapshot in place, validating
         every word.  A single torn or mixed-generation snapshot
         fails [P.validate] with overwhelming probability. *)
      let rd = I.R.reader I.regs.(0) 0 in
      let reads = ref 0 and last = ref 0 and distinct = ref 0 in
      while !last < updates do
        incr reads;
        let seq =
          I.R.read_with rd ~f:(fun buf l ->
              match P.validate buf ~len:l with
              | Ok seq -> seq
              | Error e ->
                  failwith ("torn snapshot crossed the process boundary: " ^ e))
        in
        if seq < !last then failwith "feed went backwards";
        if seq <> !last then incr distinct;
        last := seq
      done;
      ignore (Unix.waitpid [] producer);
      Printf.printf
        "two_process_feed: consumer pid %d made %d reads of producer pid %d's \
         %d snapshots (%d distinct), all validated\n"
        (Unix.getpid ()) !reads producer updates !distinct;
      (* Post-mortem: a third, fresh view of the same file — what a
         process that was never forked from the creator can see.  The
         latest verified snapshot is recoverable from the bytes
         alone. *)
      let m' = Shm_mem.attach ~path in
      (match Shm_mem.read_latest m' with
      | None -> failwith "published register reads back empty from the file"
      | Some (_publish_seq, payload) -> (
          match P0.validate_words payload ~len:(Array.length payload) with
          | Ok seq ->
              Printf.printf
                "two_process_feed: fresh attach recovered snapshot %d/%d from \
                 the file alone\n"
                seq updates
          | Error e -> failwith ("recovered snapshot failed validation: " ^ e)));
      Shm_mem.close m';
      Shm_mem.close m;
      Sys.remove path
