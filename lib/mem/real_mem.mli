(** Hardware instance of {!Mem_intf.S}: OCaml 5 atomics for loads,
    RMWs and the sequentially consistent [store] (a locked exchange on
    x86), a C release store for [store_release] (a bare MOV on
    x86-TSO, the paper's plain store), and native [int array]
    buffers.

    [fetch_and_or] is a CAS-retry emulation — OCaml has no native
    fetch-or — as recorded in DESIGN.md §2; each retry
    costs one real RMW and is charged as such by {!Counting}. *)

include
  Mem_intf.S with type atomic = int Atomic.t and type buffer = int array
