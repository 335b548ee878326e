let algorithm = "lamport77"

module Make (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = {
    v1 : M.atomic;  (* bumped before the writer's copy *)
    v2 : M.atomic;  (* set equal to v1 after the copy *)
    size : M.atomic;
    content : M.buffer;
    capacity : int;
    readers : int;
  }

  type reader = { reg : t; scratch : M.buffer; mutable retries : int }

  let algorithm = algorithm

  let caps =
    {
      Arc_core.Register_intf.wait_free = false;
      zero_copy = false (* reads validate a private scratch copy *);
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = false;
    }

  let create ~readers ~capacity ~init =
    if readers < 1 then invalid_arg "Lamport_reg.create: need at least one reader";
    if capacity < 1 then invalid_arg "Lamport_reg.create: capacity must be positive";
    if Array.length init > capacity then invalid_arg "Lamport_reg.create: init too long";
    let reg =
      {
        (* The version pair is polled by every reader around every
           copy while the writer bumps both per write. *)
        v1 = M.atomic_contended 0;
        v2 = M.atomic_contended 0;
        size = M.atomic 0;
        content = M.alloc capacity;
        capacity;
        readers;
      }
    in
    M.write_words reg.content ~src:init ~len:(Array.length init);
    M.store reg.size (Array.length init);
    reg

  let reader reg i =
    if i < 0 || i >= reg.readers then
      invalid_arg "Lamport_reg.reader: identity out of range";
    { reg; scratch = M.alloc reg.capacity; retries = 0 }

  let retries rd = rd.retries

  let read_with rd ~f =
    let reg = rd.reg in
    let rec attempt () =
      let t2 = M.load reg.v2 in
      let len = M.load reg.size in
      let len = if len < 0 then 0 else if len > reg.capacity then reg.capacity else len in
      M.blit reg.content rd.scratch ~len;
      let t1 = M.load reg.v1 in
      if t1 = t2 then (rd.scratch, len)
      else begin
        rd.retries <- rd.retries + 1;
        M.cede ();
        attempt ()
      end
    in
    let buffer, len = attempt () in
    f buffer len

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        if Array.length dst < len then
          invalid_arg "Lamport_reg.read_into: dst too short";
        M.read_words buffer ~dst ~len;
        len)

  let write reg ~src ~len =
    if len < 0 || len > Array.length src then invalid_arg "Lamport_reg.write: bad length";
    if len > M.capacity reg.content then invalid_arg "Lamport_reg.write: exceeds capacity";
    (* [v1] opens the write and stays sequentially consistent, so the
       content stores cannot pass it; [size] and the closing [v2] only
       follow the stores before them. *)
    M.store reg.v1 (M.load reg.v1 + 1);
    M.write_words reg.content ~src ~len;
    M.store_release reg.size len;
    M.store_release reg.v2 (M.load reg.v1)
end
