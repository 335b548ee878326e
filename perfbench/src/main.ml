(* Command line of the end-to-end benchmark: runs one workload and
   prints its metrics, the last line being the JSON result object. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tmp_dir = ref Filename.current_dir_name and trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--tmp-dir", Arg.Set_string tmp_dir, "DIR where shared-memory mappings are created");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the traced run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  let run =
    match List.assoc_opt !workload Perfbench.Workloads.all with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst Perfbench.Workloads.all));
        exit 2
  in
  let cores = Perfbench.Harness.hw_cores in
  if cores < 2 then begin
    Printf.eprintf "refusing to run: 2 domains needed, hw_cores = %d\n" cores;
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let cfg =
    {
      Perfbench.Harness.seconds = !seconds;
      seed = !seed;
      trace = !trace = 1;
      tmp_dir = !tmp_dir;
      trace_out = (if !trace_out = "" then None else Some !trace_out);
    }
  in
  let o = run cfg in
  Perfbench.Report.print o ~workload:!workload ~traced:cfg.trace
