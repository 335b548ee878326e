module Sched = Arc_vsched.Sched

let name = "coherence-sim"
let words_per_line = 8

let cache : Cache.t option ref = ref None
let next_line = ref 0

let install c =
  cache := Some c;
  next_line := 0

let uninstall () = cache := None
let installed () = !cache

let fresh_lines n =
  let base = !next_line in
  next_line := base + n;
  base

let current_agent c =
  match Sched.current_fiber () with
  | Some id when id < Cache.agents c - 1 -> id
  | Some _ | None -> Cache.init_agent c

let touch ~is_write line =
  match !cache with
  | None -> Sched.cede ~weight:1 ()
  | Some c ->
    let agent = current_agent c in
    let cost =
      if is_write then Cache.write c ~agent ~line else Cache.read c ~agent ~line
    in
    Sched.cede ~weight:cost ()

type atomic = { line : int; mutable v : int }

let atomic v = { line = fresh_lines 1; v }

(* Every synchronization variable already owns a private cache line in
   this model (the layout a careful implementation pads out to), so a
   contended cell needs nothing extra. *)
let atomic_contended = atomic
let atomic_contended_pair v1 v2 = (atomic v1, atomic v2)

let load a =
  touch ~is_write:false a.line;
  a.v

let store a v =
  touch ~is_write:true a.line;
  a.v <- v

(* The model prices coherence, not ordering: a release store takes
   the line for writing exactly like a store. *)
let store_release = store

(* RMWs hold the line exclusively: one write-intent access. *)
let exchange a v =
  touch ~is_write:true a.line;
  let old = a.v in
  a.v <- v;
  old

let fetch_and_add a k =
  touch ~is_write:true a.line;
  let old = a.v in
  a.v <- old + k;
  old

let add_and_fetch a k =
  touch ~is_write:true a.line;
  let v = a.v + k in
  a.v <- v;
  v

let incr a = ignore (add_and_fetch a 1)

let compare_and_set a expected v =
  touch ~is_write:true a.line;
  if a.v = expected then begin
    a.v <- v;
    true
  end
  else false

let fetch_and_or a mask =
  touch ~is_write:true a.line;
  let old = a.v in
  a.v <- old lor mask;
  old

let fetch_and_and a mask =
  touch ~is_write:true a.line;
  let old = a.v in
  a.v <- old land mask;
  old

type buffer = { base_line : int; data : int array }

let alloc words =
  if words < 0 then invalid_arg "Cc_mem.alloc: negative size";
  let lines = (words + words_per_line - 1) / words_per_line in
  { base_line = fresh_lines (max lines 1); data = Array.make words 0 }

let capacity b = Array.length b.data
let line_of b i = b.base_line + (i / words_per_line)

let write_words b ~src ~len =
  if len < 0 || len > Array.length src || len > Array.length b.data then
    invalid_arg "Cc_mem.write_words: bad length";
  for i = 0 to len - 1 do
    touch ~is_write:true (line_of b i);
    b.data.(i) <- src.(i)
  done

let read_word b i =
  touch ~is_write:false (line_of b i);
  b.data.(i)

let read_words b ~dst ~len =
  if len < 0 || len > Array.length dst || len > Array.length b.data then
    invalid_arg "Cc_mem.read_words: bad length";
  for i = 0 to len - 1 do
    touch ~is_write:false (line_of b i);
    dst.(i) <- b.data.(i)
  done

let blit src dst ~len =
  if len < 0 || len > Array.length src.data || len > Array.length dst.data then
    invalid_arg "Cc_mem.blit: bad length";
  for i = 0 to len - 1 do
    touch ~is_write:false (line_of src i);
    touch ~is_write:true (line_of dst i);
    dst.data.(i) <- src.data.(i)
  done

let cede () = Sched.cede ~weight:1 ()
