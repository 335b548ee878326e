(** Instrumentation functor: wraps any {!Mem_intf.S} instance and
    counts operations by class, with one counter cell per domain
    (registered through [Domain.DLS]) so that counting perturbs the
    measured algorithms as little as possible and never misses
    cross-domain increments.

    This instance powers experiment E4: the paper attributes ARC's
    advantage over RF to executing {e fewer RMW instructions} on the
    read path (§1, §5); wrapping both algorithms in [Counting] turns
    that argument into measured per-operation counts. *)

module Make (M : Mem_intf.S) = struct
  let name = "counting(" ^ M.name ^ ")"

  type cell = {
    mutable rmw : int;
    mutable atomic_load : int;
    mutable atomic_store : int;
    mutable word_read : int;
    mutable word_write : int;
  }

  let registry : cell list ref = ref []
  let registry_lock = Mutex.create ()

  let fresh_cell () =
    let c =
      { rmw = 0; atomic_load = 0; atomic_store = 0; word_read = 0; word_write = 0 }
    in
    Mutex.lock registry_lock;
    registry := c :: !registry;
    Mutex.unlock registry_lock;
    c

  let key = Domain.DLS.new_key fresh_cell
  let cell () = Domain.DLS.get key

  let counts () =
    Mutex.lock registry_lock;
    let cells = !registry in
    Mutex.unlock registry_lock;
    List.fold_left
      (fun acc c ->
        Mem_intf.add_counts acc
          {
            Mem_intf.rmw = c.rmw;
            atomic_load = c.atomic_load;
            atomic_store = c.atomic_store;
            word_read = c.word_read;
            word_write = c.word_write;
          })
      Mem_intf.zero_counts cells

  let reset () =
    Mutex.lock registry_lock;
    List.iter
      (fun c ->
        c.rmw <- 0;
        c.atomic_load <- 0;
        c.atomic_store <- 0;
        c.word_read <- 0;
        c.word_write <- 0)
      !registry;
    Mutex.unlock registry_lock

  type atomic = M.atomic

  let atomic = M.atomic

  (* Allocation is not an operation class; contended cells count
     exactly like plain ones, so layout changes never skew E4. *)
  let atomic_contended = M.atomic_contended
  let atomic_contended_pair = M.atomic_contended_pair

  let load a =
    (cell ()).atomic_load <- (cell ()).atomic_load + 1;
    M.load a

  let store a v =
    (cell ()).atomic_store <- (cell ()).atomic_store + 1;
    M.store a v

  (* Same class as [store]: E4 counts RMWs, and a release store is
     one plain store whatever its order. *)
  let store_release a v =
    (cell ()).atomic_store <- (cell ()).atomic_store + 1;
    M.store_release a v

  let count_rmw () =
    let c = cell () in
    c.rmw <- c.rmw + 1

  let exchange a v =
    count_rmw ();
    M.exchange a v

  let fetch_and_add a k =
    count_rmw ();
    M.fetch_and_add a k

  let incr a =
    count_rmw ();
    M.incr a

  let compare_and_set a old v =
    count_rmw ();
    M.compare_and_set a old v

  (* Emulate fetch_and_or on top of the counted CAS so every retry is
     charged as one RMW, matching what the hardware would issue. *)
  let rec fetch_and_or a mask =
    let old = load a in
    if compare_and_set a old (old lor mask) then old else fetch_and_or a mask

  type buffer = M.buffer

  let alloc = M.alloc
  let capacity = M.capacity

  let write_words buf ~src ~len =
    let c = cell () in
    c.word_write <- c.word_write + len;
    M.write_words buf ~src ~len

  let read_word buf i =
    let c = cell () in
    c.word_read <- c.word_read + 1;
    M.read_word buf i

  let read_words buf ~dst ~len =
    let c = cell () in
    c.word_read <- c.word_read + len;
    M.read_words buf ~dst ~len

  let blit src dst ~len =
    let c = cell () in
    c.word_read <- c.word_read + len;
    c.word_write <- c.word_write + len;
    M.blit src dst ~len

  let cede = M.cede
end
