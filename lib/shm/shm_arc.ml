(* ARC over a shared-memory mapping: packaging and the recovery
   bundle.  See shm_arc.mli. *)

module type INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val reg : R.t
end

type instance = (module INSTANCE)

let create m ~readers ~capacity ~init =
  (match Shm_mem.geometry m with
  | Some _ ->
      invalid_arg
        "Shm_arc.create: mapping already holds a register (attach-and-\
         recreate is not supported; fork instead)"
  | None -> ());
  let module M = (val Shm_mem.mem m) in
  let module R = Arc_core.Arc.Make (M) in
  let reg = R.create ~readers ~capacity ~init in
  Shm_mem.set_geometry m ~readers ~capacity;
  (module struct
    module M = M
    module R = R

    let mapping = m
    let reg = reg
  end : INSTANCE)

let recover (module I : INSTANCE) =
  match Shm_mem.recover I.mapping with
  | Error _ as e -> e
  | Ok rcv ->
      (* Buffer ordinal = slot index: Arc.create allocates slot
         contents in slot order and is the mapping's only buffer
         allocator ([create] above refuses mappings with prior
         geometry). *)
      let nslots = I.R.Debug.slots I.reg in
      List.iter
        (fun (c : Shm_mem.conviction) ->
          if c.ordinal < nslots then I.R.quarantine I.reg c.ordinal)
        rcv.convicted;
      let journaled = I.R.recover_crash I.reg in
      Ok (rcv, journaled)

(* {1 Fabric packaging (ISSUE 9)} *)

module type FABRIC_INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val shards : int
  val regs : R.t array
end

type fabric_instance = (module FABRIC_INSTANCE)

let create_fabric m ~shards ~readers ~capacity ~init =
  if shards < 1 then invalid_arg "Shm_arc.create_fabric: shards must be >= 1";
  (match Shm_mem.geometry m with
  | Some _ ->
      invalid_arg
        "Shm_arc.create_fabric: mapping already holds a register (attach-and-\
         recreate is not supported; fork instead)"
  | None -> ());
  let module M = (val Shm_mem.mem m) in
  let module R = Arc_core.Arc.Make (M) in
  (* Sequential creation fixes the ordinal map: shard s's buffers are
     mapping ordinals [s·nslots, (s+1)·nslots) — the contract
     {!Shm_mem.recover_shard} scopes its scan by. *)
  let regs =
    Array.init shards (fun _ -> R.create ~readers ~capacity ~init)
  in
  ignore (Shm_mem.alloc_reign_table m ~shards);
  Shm_mem.set_geometry m ~readers ~capacity;
  (module struct
    module M = M
    module R = R

    let mapping = m
    let shards = shards
    let regs = regs
  end : FABRIC_INSTANCE)

let recover_shard (module I : FABRIC_INSTANCE) ~shard =
  match Shm_mem.recover_shard I.mapping ~shard with
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
