module type COUNTERS = sig
  val counts : unit -> Arc_mem.Mem_intf.counts
  val reset : unit -> unit
end

type per_op = {
  rmw_per_read : float;
  rmw_per_write : float;
  atomic_loads_per_read : float;
  word_writes_per_write : float;
  reads : int;
  writes : int;
}

module Make (C : COUNTERS) (R : Arc_core.Register_intf.S) = struct
  module P = Arc_workload.Payload.Make (R.Mem)

  let measure ~readers ~size_words ~rounds ~reads_per_write =
    if readers < 1 || rounds < 1 || reads_per_write < 1 || size_words < 1 then
      invalid_arg "Count_runner.measure: bad parameters";
    let init = Array.make size_words 0 in
    P.stamp init ~seq:0 ~len:size_words;
    let reg = R.create ~readers ~capacity:size_words ~init in
    let handles = Array.init readers (R.reader reg) in
    let src = Array.make size_words 0 in
    let read_rmw = ref 0
    and read_loads = ref 0
    and write_rmw = ref 0
    and write_words = ref 0 in
    for round = 1 to rounds do
      P.stamp src ~seq:round ~len:size_words;
      C.reset ();
      R.write reg ~src ~len:size_words;
      let wc = C.counts () in
      write_rmw := !write_rmw + wc.Arc_mem.Mem_intf.rmw;
      write_words := !write_words + wc.Arc_mem.Mem_intf.word_write;
      C.reset ();
      for _rep = 1 to reads_per_write do
        Array.iter (fun rd -> R.read_with rd ~f:(fun _ _ -> ())) handles
      done;
      let rc = C.counts () in
      read_rmw := !read_rmw + rc.Arc_mem.Mem_intf.rmw;
      read_loads := !read_loads + rc.Arc_mem.Mem_intf.atomic_load
    done;
    let reads = rounds * reads_per_write * readers in
    let writes = rounds in
    {
      rmw_per_read = float_of_int !read_rmw /. float_of_int reads;
      rmw_per_write = float_of_int !write_rmw /. float_of_int writes;
      atomic_loads_per_read = float_of_int !read_loads /. float_of_int reads;
      word_writes_per_write = float_of_int !write_words /. float_of_int writes;
      reads;
      writes;
    }
end
