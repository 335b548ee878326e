let rmw_weight = ref 4
let name = "sim"

let plain () = Sched.cede ~weight:1 ()
let rmw () = Sched.cede ~weight:!rmw_weight ()

type atomic = int ref

let atomic v = ref v

(* The simulator models interleavings, not layout: a contended cell is
   an ordinary cell (and, like [atomic], allocation is not a
   scheduling point), so schedule exploration is unchanged. *)
let atomic_contended = atomic
let atomic_contended_pair v1 v2 = (atomic v1, atomic v2)

let load a =
  plain ();
  !a

let store a v =
  plain ();
  a := v

(* The simulator is sequentially consistent: a release store is the
   same scheduling point as a store. *)
let store_release = store

(* The scheduler only preempts at [cede], so the read-modify-write
   below really is atomic with respect to every other fiber. *)
let exchange a v =
  rmw ();
  let old = !a in
  a := v;
  old

let fetch_and_add a k =
  rmw ();
  let old = !a in
  a := old + k;
  old

let add_and_fetch a k =
  rmw ();
  let v = !a + k in
  a := v;
  v

let incr a = ignore (add_and_fetch a 1)

let compare_and_set a expected v =
  rmw ();
  if !a = expected then begin
    a := v;
    true
  end
  else false

let fetch_and_or a mask =
  rmw ();
  let old = !a in
  a := old lor mask;
  old

let fetch_and_and a mask =
  rmw ();
  let old = !a in
  a := old land mask;
  old

type buffer = int array

let alloc words =
  if words < 0 then invalid_arg "Sim_mem.alloc: negative size";
  Array.make words 0

let capacity = Array.length

let write_words buf ~src ~len =
  if len < 0 || len > Array.length src || len > Array.length buf then
    invalid_arg "Sim_mem.write_words: bad length";
  for i = 0 to len - 1 do
    plain ();
    buf.(i) <- src.(i)
  done

let read_word buf i =
  plain ();
  buf.(i)

let read_words buf ~dst ~len =
  if len < 0 || len > Array.length dst || len > Array.length buf then
    invalid_arg "Sim_mem.read_words: bad length";
  for i = 0 to len - 1 do
    plain ();
    dst.(i) <- buf.(i)
  done

let blit src dst ~len =
  if len < 0 || len > Array.length src || len > Array.length dst then
    invalid_arg "Sim_mem.blit: bad length";
  for i = 0 to len - 1 do
    plain ();
    dst.(i) <- src.(i)
  done

let cede () = Sched.cede ~weight:1 ()
