let algorithm = "rwlock"

module Make (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = { lock : M.atomic; size : M.atomic; content : M.buffer; readers : int }
  type reader = t

  let algorithm = algorithm

  let caps =
    {
      Arc_core.Register_intf.wait_free = false;
      zero_copy = true (* the callback runs on the shared buffer, inside the lock *);
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = false;
    }

  let create ~readers ~capacity ~init =
    if readers < 1 then invalid_arg "Rwlock_reg.create: need at least one reader";
    if capacity < 1 then invalid_arg "Rwlock_reg.create: capacity must be positive";
    if Array.length init > capacity then invalid_arg "Rwlock_reg.create: init too long";
    let reg =
      (* Every acquire/release CASes the lock word: own line. *)
      { lock = M.atomic_contended 0; size = M.atomic 0; content = M.alloc capacity;
        readers }
    in
    M.write_words reg.content ~src:init ~len:(Array.length init);
    M.store reg.size (Array.length init);
    reg

  let reader reg i =
    if i < 0 || i >= reg.readers then
      invalid_arg "Rwlock_reg.reader: identity out of range";
    reg

  let rec read_lock reg =
    let v = M.load reg.lock in
    if v >= 0 && M.compare_and_set reg.lock v (v + 1) then ()
    else begin
      M.cede ();
      read_lock reg
    end

  let rec read_unlock reg =
    let v = M.load reg.lock in
    if M.compare_and_set reg.lock v (v - 1) then ()
    else begin
      M.cede ();
      read_unlock reg
    end

  let rec write_lock reg =
    if M.compare_and_set reg.lock 0 (-1) then ()
    else begin
      M.cede ();
      write_lock reg
    end

  (* Unlock is a release store, as in a C spin-lock: the critical
     section's stores must be visible before it, nothing after it is. *)
  let write_unlock reg = M.store_release reg.lock 0

  let read_with reg ~f =
    read_lock reg;
    (* The buffer is only stable while the read lock is held, so the
       consumer runs inside the critical section. *)
    let result =
      match f reg.content (M.load reg.size) with
      | v -> v
      | exception e ->
        read_unlock reg;
        raise e
    in
    read_unlock reg;
    result

  let read_into reg ~dst =
    read_with reg ~f:(fun buffer len ->
        if Array.length dst < len then
          invalid_arg "Rwlock_reg.read_into: dst too short";
        M.read_words buffer ~dst ~len;
        len)

  let write reg ~src ~len =
    if len < 0 || len > Array.length src then invalid_arg "Rwlock_reg.write: bad length";
    if len > M.capacity reg.content then invalid_arg "Rwlock_reg.write: exceeds capacity";
    write_lock reg;
    M.write_words reg.content ~src ~len;
    M.store_release reg.size len;
    write_unlock reg
end
