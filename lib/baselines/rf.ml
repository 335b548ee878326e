let algorithm = "rf"

module Bits = Arc_util.Bits

let max_readers_for_word ~word_bits =
  let fits n = n >= 1 && n + Bits.ceil_log2 (n + 2) <= word_bits in
  let rec grow n = if fits (n + 1) then grow (n + 1) else n in
  if fits 1 then grow 1 else 0

module Make (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type slot = { size : M.atomic; content : M.buffer }

  type t = {
    slots : slot array;  (* N + 2 *)
    sync : M.atomic;  (* ⟨pointer ≪ readers⟩ lor ⟨reader trace bits⟩ *)
    readers : int;
    (* Writer-private. *)
    trace : int array;  (* trace.(i): slot reader i may still be using *)
    claimed : int array;  (* stamp per slot, to test membership in O(1) *)
    mutable stamp : int;
    mutable last_slot : int;
  }

  type reader = { reg : t; bit : int }

  let algorithm = algorithm

  let caps =
    {
      Arc_core.Register_intf.wait_free = true;
      zero_copy = true;
      max_readers =
        (fun ~capacity_words:_ -> Some (max_readers_for_word ~word_bits:Sys.int_size));
      snapshot_read = false;
    }

  let pointer_of reg word = word lsr reg.readers
  let trace_bits reg word = word land Bits.mask reg.readers
  let word_of_pointer reg ptr = ptr lsl reg.readers

  let create ~readers ~capacity ~init =
    if readers < 1 then invalid_arg "Rf.create: need at least one reader";
    let bound = max_readers_for_word ~word_bits:Sys.int_size in
    if readers > bound then
      invalid_arg
        (Printf.sprintf "Rf.create: %d readers exceed the word-size bound %d"
           readers bound);
    if capacity < 1 then invalid_arg "Rf.create: capacity must be positive";
    if Array.length init > capacity then invalid_arg "Rf.create: init too long";
    let nslots = readers + 2 in
    let slots =
      Array.init nslots (fun _ -> { size = M.atomic 0; content = M.alloc capacity })
    in
    M.write_words slots.(0).content ~src:init ~len:(Array.length init);
    M.store slots.(0).size (Array.length init);
    {
      slots;
      (* The presence word absorbs one RMW per read from every reader
         plus the writer's exchange — isolate it on its own line. *)
      sync = M.atomic_contended 0 (* pointer = 0, no trace bits *);
      readers;
      trace = Array.make readers (-1);
      claimed = Array.make nslots (-1);
      stamp = 0;
      last_slot = 0;
    }

  let reader reg i =
    if i < 0 || i >= reg.readers then invalid_arg "Rf.reader: identity out of range";
    { reg; bit = i }

  (* One RMW per read, unconditionally: set my trace bit and learn the
     published pointer in the same atomic step. *)
  let read_view rd =
    let reg = rd.reg in
    let old = M.fetch_and_or reg.sync (1 lsl rd.bit) in
    let ptr = pointer_of reg old in
    let entry = reg.slots.(ptr) in
    (entry.content, M.load entry.size)

  let read_with rd ~f =
    let buffer, len = read_view rd in
    f buffer len

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        if Array.length dst < len then invalid_arg "Rf.read_into: dst too short";
        M.read_words buffer ~dst ~len;
        len)

  (* O(N) free-buffer search: a buffer is free iff it is neither the
     published one nor traced for any reader. *)
  let find_free reg =
    reg.stamp <- reg.stamp + 1;
    reg.claimed.(reg.last_slot) <- reg.stamp;
    Array.iter (fun s -> if s >= 0 then reg.claimed.(s) <- reg.stamp) reg.trace;
    let n = Array.length reg.slots in
    let rec scan j =
      if j >= n then failwith "Rf.write: no free buffer (invariant violated)"
      else if reg.claimed.(j) <> reg.stamp then j
      else begin
        M.cede ();
        scan (j + 1)
      end
    in
    scan 0

  let write reg ~src ~len =
    if len < 0 || len > Array.length src then invalid_arg "Rf.write: bad length";
    let slot = find_free reg in
    let entry = reg.slots.(slot) in
    if len > M.capacity entry.content then invalid_arg "Rf.write: exceeds capacity";
    M.write_words entry.content ~src ~len;
    (* The publish exchange below orders [size] for readers. *)
    M.store_release entry.size len;
    let old = M.exchange reg.sync (word_of_pointer reg slot) in
    let old_ptr = pointer_of reg old in
    (* Readers whose bit was set read their pointer while [old_ptr]
       was published, so that is the buffer they may still be using. *)
    Bits.iter_set (fun i -> reg.trace.(i) <- old_ptr) (trace_bits reg old);
    reg.last_slot <- slot
end
