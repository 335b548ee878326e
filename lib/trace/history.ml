type kind = Read | Write

type event = {
  kind : kind;
  thread : int;
  seq : int;
  invoked : int;
  returned : int;
}

let event kind ~thread ~seq ~invoked ~returned =
  if returned < invoked then invalid_arg "History.event: returned before invoked";
  if seq < 0 then invalid_arg "History.event: negative sequence";
  { kind; thread; seq; invoked; returned }

let pp_event ppf e =
  Format.fprintf ppf "@[<h>%s(thread=%d, seq=%d, [%d,%d])@]"
    (match e.kind with Read -> "read" | Write -> "write")
    e.thread e.seq e.invoked e.returned

type t = { all : event list; rds : event list; wrs : event list }

let by_invocation a b =
  match compare a.invoked b.invoked with 0 -> compare a.returned b.returned | c -> c

let by_seq a b = compare a.seq b.seq

let of_events evs =
  let all = List.sort by_invocation evs in
  let rds = List.filter (fun e -> e.kind = Read) all in
  let wrs = List.sort by_seq (List.filter (fun e -> e.kind = Write) all) in
  { all; rds; wrs }

let events t = t.all
let reads t = t.rds
let writes t = t.wrs
let size t = List.length t.all

(* {1 Persistence}

   A line-oriented text format so a history survives the process that
   recorded it — the cross-process crash harness dumps the surviving
   history next to the register mapping, and arc-check re-judges it
   offline.  Header, then [meta key value] context lines (the crash
   fence, the pending write), then one event per line. *)

let format_name = "arc-history"
let format_version = 1

let dump ?(meta = []) t path =
  List.iter
    (fun (k, _) ->
      if k = "" || String.exists (fun c -> c = ' ' || c = '\n') k then
        invalid_arg "History.dump: meta keys must be non-empty and space-free")
    meta;
  let oc = open_out path in
  Printf.fprintf oc "%s %d\n" format_name format_version;
  List.iter (fun (k, v) -> Printf.fprintf oc "meta %s %d\n" k v) meta;
  List.iter
    (fun e ->
      Printf.fprintf oc "%c %d %d %d %d\n"
        (match e.kind with Read -> 'r' | Write -> 'w')
        e.thread e.seq e.invoked e.returned)
    t.all;
  close_out oc

let load path =
  let ic = open_in path in
  let fail line fmt =
    Printf.ksprintf
      (fun msg ->
        close_in_noerr ic;
        failwith (Printf.sprintf "History.load: %s:%d: %s" path line msg))
      fmt
  in
  (match input_line ic with
  | header when header = Printf.sprintf "%s %d" format_name format_version -> ()
  | header -> fail 1 "bad header %S" header
  | exception End_of_file -> fail 1 "empty file");
  let meta = ref [] and evs = ref [] and line = ref 1 in
  (try
     while true do
       let l = input_line ic in
       incr line;
       if l <> "" then
         match String.split_on_char ' ' l with
         | [ "meta"; k; v ] -> (
           match int_of_string_opt v with
           | Some v -> meta := (k, v) :: !meta
           | None -> fail !line "bad meta value %S" v)
         | [ k; thread; seq; invoked; returned ] -> (
           let kind =
             match k with
             | "r" -> Read
             | "w" -> Write
             | _ -> fail !line "bad event kind %S" k
           in
           match
             ( int_of_string_opt thread,
               int_of_string_opt seq,
               int_of_string_opt invoked,
               int_of_string_opt returned )
           with
           | Some thread, Some seq, Some invoked, Some returned ->
             evs := event kind ~thread ~seq ~invoked ~returned :: !evs
           | _ -> fail !line "bad event line %S" l)
         | _ -> fail !line "unparseable line %S" l
     done
   with End_of_file -> ());
  close_in ic;
  (of_events (List.rev !evs), List.rev !meta)

module Recorder = struct
  type cell = {
    kinds : kind array;
    seqs : int array;
    invokes : int array;
    returns : int array;
    mutable len : int;
    mutable dropped : int;
  }

  type recorder = { cells : cell array; capacity : int }

  let create ~threads ~capacity =
    if threads < 1 then invalid_arg "Recorder.create: no threads";
    if capacity < 1 then invalid_arg "Recorder.create: no capacity";
    let fresh () =
      {
        kinds = Array.make capacity Read;
        seqs = Array.make capacity 0;
        invokes = Array.make capacity 0;
        returns = Array.make capacity 0;
        len = 0;
        dropped = 0;
      }
    in
    { cells = Array.init threads (fun _ -> fresh ()); capacity }

  let record r ~thread kind ~seq ~invoked ~returned =
    let c = r.cells.(thread) in
    if c.len >= r.capacity then c.dropped <- c.dropped + 1
    else begin
      let i = c.len in
      c.kinds.(i) <- kind;
      c.seqs.(i) <- seq;
      c.invokes.(i) <- invoked;
      c.returns.(i) <- returned;
      c.len <- i + 1
    end

  let reset r =
    Array.iter
      (fun c ->
        c.len <- 0;
        c.dropped <- 0)
      r.cells

  let dropped r = Array.fold_left (fun acc c -> acc + c.dropped) 0 r.cells

  let history r =
    let evs = ref [] in
    Array.iteri
      (fun thread c ->
        for i = c.len - 1 downto 0 do
          evs :=
            event c.kinds.(i) ~thread ~seq:c.seqs.(i) ~invoked:c.invokes.(i)
              ~returned:c.returns.(i)
            :: !evs
        done)
      r.cells;
    of_events !evs
end
