(* Aggregate test runner for the fairmc repository. *)

let () =
  Alcotest.run "fairmc"
    [ ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("fair-sched", Test_fair_sched.suite);
      ("objects", Test_objects.suite);
      ("engine", Test_engine.suite);
      ("sync", Test_sync.suite);
      ("search", Test_search.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("rewind", Test_rewind.suite);
      ("par-search", Test_par_search.suite);
      ("supervisor", Test_supervisor.suite);
      ("serve", Test_serve.suite);
      ("liveness", Test_liveness.suite);
      ("sleep-sets", Test_sleepsets.suite);
      ("statecap", Test_statecap.suite);
      ("ltl", Test_ltl.suite);
      ("theorems", Test_theorems.suite);
      ("dsl", Test_dsl.suite);
      ("static", Test_static.suite);
      ("checker", Test_checker.suite);
      ("extras", Test_extras.suite);
      ("analysis", Test_analysis.suite);
      ("workloads", Test_workloads.suite) ]
