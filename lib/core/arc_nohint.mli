(** ARC with the §3.4 free-slot hint disabled — the ablation arm of
    experiment E5.  Reads never post proposals and every write
    free-slot search is a linear scan (O(N) worst case, as the paper
    notes writes would be without the optimization). *)

val algorithm : string

module Make (M : Arc_mem.Mem_intf.S) : sig
  include Register_intf.ZERO_COPY with module Mem = M

  val write_guarded : t -> guard:(unit -> unit) -> src:int array -> len:int -> unit
  (** {!Register_intf.FENCEABLE}: see {!Arc.Make}. *)

  val recover_crash : t -> int
  val quarantine : t -> int -> unit
  (** {!Register_intf.FENCEABLE}: see {!Arc.Make}. *)

  val write_probes : t -> int
  val writes : t -> int

  val read_stamped_into : reader -> dst:int array -> int
  val view_stamp : reader -> int
  val probe_stamp : t -> int
  (** {!Register_intf.STAMPED}: see {!Arc.Make}. *)
end
