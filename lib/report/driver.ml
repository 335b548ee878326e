(* Campaign seeds and loop, violation lines, fail log and exit status.  See
   driver.mli. *)

let derive_seed base k = (base * 1_000_003) + k

let campaign ?(on_run = ignore) ~raised ~base ~runs run =
  let results = ref [] in
  for k = 1 to runs do
    let seed = derive_seed base k in
    let r =
      try run ~seed
      with e -> raised ~seed ("run raised: " ^ Printexc.to_string e)
    in
    on_run r;
    results := r :: !results
  done;
  List.rev !results

let violation ?(indent = 0) ?msg ~seed replay =
  let pad = String.make indent ' ' in
  Printf.sprintf "%sviolation [seed %d]%s\n%s  replay: %s\n" pad seed
    (match msg with Some m -> ": " ^ m | None -> "")
    pad replay

let fail_log ~replay seeds =
  String.concat ""
    (List.map (fun seed -> replay seed ^ "\n") (List.sort_uniq compare seeds))

let report ?indent ?fail_log:path ~replay violations =
  List.iter
    (fun (seed, msg) ->
      print_string (violation ?indent ?msg ~seed (replay seed)))
    violations;
  match path with
  | Some path when violations <> [] ->
      let oc = open_out path in
      output_string oc (fail_log ~replay (List.map fst violations));
      close_out oc;
      Printf.printf "replay commands written to %s\n" path
  | _ -> ()

let control label ~convicted ~expected ~unconvicted =
  Printf.printf "%s %s\n" label
    (if convicted then "CONVICTED (expected): " ^ expected
     else "UNCONVICTED — " ^ unconvicted);
  convicted

let exit_status ~failing ~controls_ok =
  if failing > 0 then 1 else if not controls_ok then 2 else 0

let finish ~failing ~controls_ok =
  match exit_status ~failing ~controls_ok with 0 -> () | code -> exit code
