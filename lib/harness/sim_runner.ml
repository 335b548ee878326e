module History = Arc_trace.History
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module Fibers = Arc_fault.Fibers

module Make (R : Arc_core.Register_intf.S) = struct
  module W = Arc_fault.Fibers.Make (R)

  (* [prepare] runs on the freshly created register before any fiber
     starts — the attach point for telemetry, which must be wired
     before reader handles are created. *)
  let run ?prepare ?strategy (cfg : Config.sim) : Config.result =
    if cfg.sim_readers < 1 then invalid_arg "Sim_runner.run: need at least one reader";
    if cfg.sim_size_words < 1 then invalid_arg "Sim_runner.run: empty register";
    if cfg.max_steps < 1 then invalid_arg "Sim_runner.run: no step budget";
    (match R.caps.Arc_core.Register_intf.max_readers ~capacity_words:cfg.sim_size_words with
    | Some bound when cfg.sim_readers > bound ->
      invalid_arg
        (Printf.sprintf "Sim_runner.run: %s supports at most %d readers" R.algorithm
           bound)
    | _ -> ());
    let strategy =
      match strategy with
      | Some s -> s
      | None -> Strategy.random ~seed:cfg.sim_seed
    in
    let fx =
      Fibers.create ~workload:cfg.sim_workload
        ?record:(if cfg.sim_record > 0 then Some cfg.sim_record else None)
        ~size:cfg.sim_size_words ~max_steps:cfg.max_steps
        ~threads:(cfg.sim_readers + 1) ()
    in
    let reg = R.create ~readers:cfg.sim_readers ~capacity:cfg.sim_size_words ~init:fx.init in
    (match prepare with Some f -> f reg | None -> ());
    let stop = Fibers.Until cfg.max_steps in
    let outcome =
      Fibers.run fx ~strategy
        (Array.init (cfg.sim_readers + 1) (fun i ->
             if i = 0 then W.writer fx ~stop reg else W.reader fx ~stop reg ~id:(i - 1)))
    in
    let writes = fx.ops.(0) in
    Config.mk_result
      ~reads:(Array.fold_left ( + ) 0 fx.ops - writes)
      ~writes ~duration:(float_of_int outcome.Sched.steps) ~torn:fx.torn
      ~history:(Option.map History.Recorder.history fx.recorder)
      ~dropped_events:(Fibers.dropped fx)
end
