(** Barrier-free word copy between [int array]s.

    [Array.blit] into a major-heap array pays the write barrier
    ([caml_modify]) once per word on OCaml 5, although the fields of an
    [int array] are immediates that need no barrier.  {!blit} copies
    the same words with one relaxed atomic load and store each —
    per-word atomic for racing readers, never torn within a word — at
    plain-store speed, and allocates nothing. *)

val blit : int array -> int -> int array -> int -> int -> unit
(** [blit src src_pos dst dst_pos len] copies [src.(src_pos ..
    src_pos+len-1)] to [dst.(dst_pos ..)], like {!Array.blit}; [src]
    and [dst] may be the same array with overlapping ranges.
    @raise Invalid_argument ["Words.blit"] if a range is out of
    bounds or [len] is negative. *)
