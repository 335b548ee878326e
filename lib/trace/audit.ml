type t = {
  reads : Arc_util.Stats.summary option;
  writes : Arc_util.Stats.summary option;
}

let summary_of events =
  match events with
  | [] -> None
  | _ ->
    Some
      (Arc_util.Stats.summarize ~target:9990
         (Array.of_list
            (List.map
               (fun (e : History.event) -> float_of_int (e.returned - e.invoked))
               events)))

let of_history h =
  { reads = summary_of (History.reads h); writes = summary_of (History.writes h) }

let bounded h ~kind ~bound =
  let events =
    match kind with History.Read -> History.reads h | History.Write -> History.writes h
  in
  match
    List.find_opt (fun (e : History.event) -> e.returned - e.invoked > bound) events
  with
  | None -> Ok ()
  | Some worst ->
    (* Report the single worst offender, not just the first over. *)
    let worst =
      List.fold_left
        (fun (acc : History.event) (e : History.event) ->
          if e.returned - e.invoked > acc.returned - acc.invoked then e else acc)
        worst events
    in
    Error worst
