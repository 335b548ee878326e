let algorithm = "seqlock"

module Make (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = {
    version : M.atomic;
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
    if readers < 1 then invalid_arg "Seqlock_reg.create: need at least one reader";
    if capacity < 1 then invalid_arg "Seqlock_reg.create: capacity must be positive";
    if Array.length init > capacity then invalid_arg "Seqlock_reg.create: init too long";
    let reg =
      {
        (* Readers poll [version] around every copy while the writer
           bumps it twice per write: own line, away from the data. *)
        version = M.atomic_contended 0;
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
      invalid_arg "Seqlock_reg.reader: identity out of range";
    { reg; scratch = M.alloc reg.capacity; retries = 0 }
  let retries rd = rd.retries

  let read_with rd ~f =
    let reg = rd.reg in
    let rec attempt () =
      let v1 = M.load reg.version in
      if v1 land 1 = 1 then begin
        rd.retries <- rd.retries + 1;
        M.cede ();
        attempt ()
      end
      else begin
        let len = M.load reg.size in
        if len < 0 || len > reg.capacity then begin
          (* An out-of-range size word is torn evidence (a racing or
             corrupted store), not noise to clamp away: treating it as
             a failed validation keeps the baseline's tear accounting
             honest in checker comparisons. *)
          rd.retries <- rd.retries + 1;
          M.cede ();
          attempt ()
        end
        else begin
          M.blit reg.content rd.scratch ~len;
          let v2 = M.load reg.version in
          if v1 = v2 then (rd.scratch, len)
          else begin
            rd.retries <- rd.retries + 1;
            M.cede ();
            attempt ()
          end
        end
      end
    in
    let buffer, len = attempt () in
    f buffer len

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        if Array.length dst < len then
          invalid_arg "Seqlock_reg.read_into: dst too short";
        M.read_words buffer ~dst ~len;
        len)

  let write reg ~src ~len =
    if len < 0 || len > Array.length src then invalid_arg "Seqlock_reg.write: bad length";
    if len > M.capacity reg.content then
      invalid_arg "Seqlock_reg.write: exceeds capacity";
    (* The odd stamp stays sequentially consistent: the content stores
       must not pass it.  The size and the closing even stamp only
       follow the stores before them, so they are release stores. *)
    M.store reg.version (M.load reg.version + 1) (* odd: write in progress *);
    M.write_words reg.content ~src ~len;
    M.store_release reg.size len;
    M.store_release reg.version (M.load reg.version + 1) (* even: stable *)

  module Debug = struct
    (* Test-only: plant a (possibly out-of-range) size word as a torn
       or corrupted store would leave it, without touching the
       version — the regression harness for the validation above. *)
    let force_size reg len = M.store reg.size len
    let capacity reg = reg.capacity
  end
end
