let rmw_weight = ref 4
let name = "sim"
let words_per_line = 8

(* The installed cache, if any, and the line allocator that lays every
   atomic and buffer out on it.  Lines are allocated with or without a
   cache, so a register built before [with_cache] still has a layout;
   [with_cache] restarts the numbering so consecutive experiments are
   independent. *)
let cache : Cache.t option ref = ref None
let next_line = ref 0

let with_cache c f =
  cache := Some c;
  next_line := 0;
  Fun.protect ~finally:(fun () -> cache := None) f

let fresh_lines n =
  let base = !next_line in
  next_line := base + n;
  base

(* Setup code outside any fiber, and fibers beyond the cache's agents,
   are charged to the cache's designated setup agent. *)
let agent c =
  match Sched.current_fiber () with
  | Some id when id < Cache.agents c - 1 -> id
  | Some _ | None -> Cache.init_agent c

(* The two cost rules, one access each.  No cache: a plain access is
   one step and an RMW [!rmw_weight].  Cache installed: the cache
   prices the access for the running fiber's agent, and an RMW is a
   write-intent access like a store. *)
let read line =
  match !cache with
  | None -> Sched.cede ~weight:1 ()
  | Some c -> Sched.cede ~weight:(Cache.read c ~agent:(agent c) ~line) ()

let write line =
  match !cache with
  | None -> Sched.cede ~weight:1 ()
  | Some c -> Sched.cede ~weight:(Cache.write c ~agent:(agent c) ~line) ()

let rmw line =
  match !cache with
  | None -> Sched.cede ~weight:!rmw_weight ()
  | Some c -> Sched.cede ~weight:(Cache.write c ~agent:(agent c) ~line) ()

type atomic = { line : int; mutable v : int }

let atomic v = { line = fresh_lines 1; v }

(* Every atomic already owns a private line (the layout a careful
   implementation pads out to), and allocation is not a scheduling
   point, so a contended cell needs nothing extra. *)
let atomic_contended = atomic
let atomic_contended_pair v1 v2 = (atomic v1, atomic v2)

let load a =
  read a.line;
  a.v

let store a v =
  write a.line;
  a.v <- v

(* The simulator is sequentially consistent and prices coherence, not
   ordering: a release store is the same scheduling point and the same
   write access as a store. *)
let store_release = store

(* The scheduler only preempts at [cede], so the read-modify-writes
   below really are atomic with respect to every other fiber. *)
let exchange a v =
  rmw a.line;
  let old = a.v in
  a.v <- v;
  old

let fetch_and_add a k =
  rmw a.line;
  let old = a.v in
  a.v <- old + k;
  old

let incr a = ignore (fetch_and_add a 1)

let compare_and_set a expected v =
  rmw a.line;
  if a.v = expected then begin
    a.v <- v;
    true
  end
  else false

let fetch_and_or a mask =
  rmw a.line;
  let old = a.v in
  a.v <- old lor mask;
  old

type buffer = { base_line : int; data : int array }

let alloc words =
  if words < 0 then invalid_arg "Sim_mem.alloc: negative size";
  let lines = (words + words_per_line - 1) / words_per_line in
  { base_line = fresh_lines (max lines 1); data = Array.make words 0 }

let capacity b = Array.length b.data
let line_of b i = b.base_line + (i / words_per_line)

let write_words b ~src ~len =
  if len < 0 || len > Array.length src || len > Array.length b.data then
    invalid_arg "Sim_mem.write_words: bad length";
  for i = 0 to len - 1 do
    write (line_of b i);
    b.data.(i) <- src.(i)
  done

let read_word b i =
  read (line_of b i);
  b.data.(i)

let read_words b ~dst ~len =
  if len < 0 || len > Array.length dst || len > Array.length b.data then
    invalid_arg "Sim_mem.read_words: bad length";
  for i = 0 to len - 1 do
    read (line_of b i);
    dst.(i) <- b.data.(i)
  done

(* One word copied is one step without a cache, and a read of the
   source line plus a write of the destination line with one. *)
let blit src dst ~len =
  if len < 0 || len > Array.length src.data || len > Array.length dst.data then
    invalid_arg "Sim_mem.blit: bad length";
  for i = 0 to len - 1 do
    (match !cache with
    | None -> Sched.cede ~weight:1 ()
    | Some _ ->
      read (line_of src i);
      write (line_of dst i));
    dst.data.(i) <- src.data.(i)
  done

let cede () = Sched.cede ~weight:1 ()
