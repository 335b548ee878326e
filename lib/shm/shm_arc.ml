(* ARC over a shared-memory mapping: packaging and the recovery
   bundle.  See shm_arc.mli. *)

module type INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val regs : R.t array
end

type instance = (module INSTANCE)

let create ?mem m ~shards ~readers ~capacity ~init =
  if shards < 1 then invalid_arg "Shm_arc.create: shards must be >= 1";
  (match Shm_mem.geometry m with
  | Some _ ->
      invalid_arg
        "Shm_arc.create: mapping already holds a register (attach-and-\
         recreate is not supported; fork instead)"
  | None -> ());
  let module M =
    (val Option.value mem ~default:(Shm_mem.mem m)
        : Arc_mem.Mem_intf.S with type atomic = int)
  in
  let module R = Arc_core.Arc.Make (M) in
  (* Sequential creation fixes the ordinal map: shard s's buffers are
     mapping ordinals [s·nslots, (s+1)·nslots) — Arc.create allocates
     slot contents in slot order, and these registers are the
     mapping's only buffer allocator ([create] refuses mappings with
     prior geometry) — the contract {!Shm_mem.recover} scopes its scan
     by. *)
  let regs =
    Array.init shards (fun _ -> R.create ~readers ~capacity ~init)
  in
  (* A [mem] over any other memory left [m] short of the buffers. *)
  let buffers = ref 0 in
  Shm_mem.iter_buffers m (fun _ -> incr buffers);
  if !buffers <> shards * R.Debug.slots regs.(0) then
    invalid_arg
      "Shm_arc.create: mem did not allocate the registers in the mapping";
  ignore (Shm_mem.alloc_reign_table m ~shards);
  Shm_mem.set_geometry m ~readers ~capacity;
  (module struct
    module M = M
    module R = R

    let mapping = m
    let regs = regs
  end : INSTANCE)

let recover (module I : INSTANCE) ~shard =
  match Shm_mem.recover I.mapping ~shard with
  | Error _ as e -> e
  | Ok rcv ->
      let reg = I.regs.(shard) in
      let nslots = I.R.Debug.slots reg in
      let lo = shard * nslots in
      List.iter
        (fun (c : Shm_mem.conviction) ->
          let local = c.ordinal - lo in
          if local >= 0 && local < nslots then I.R.quarantine reg local)
        rcv.convicted;
      let journaled = I.R.recover_crash reg in
      Ok (rcv, journaled)
