(* See words_stubs.c for why this exists and why it is safe. *)

external unsafe_blit : int array -> int -> int array -> int -> int -> unit
  = "arc_words_blit"
[@@noalloc]

let blit src src_pos dst dst_pos len =
  if
    len < 0 || src_pos < 0
    || src_pos > Array.length src - len
    || dst_pos < 0
    || dst_pos > Array.length dst - len
  then invalid_arg "Words.blit";
  unsafe_blit src src_pos dst dst_pos len
