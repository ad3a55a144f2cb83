(* Worker-pool tests.

   Nothing in the library creates a domain, so this test binary can fork:
   zero-fault equivalence, the fault-injection matrix, crash quarantine,
   sampling faults and the shared execution budget run in-process through
   [Checker.check]. Only the SIGINT teardown drives the real CLI in a
   subprocess, because there the binary itself (its signal handling and
   exit code) is under test. The rest covers the pieces that do not fork:
   the jobs=1 passthrough, checkpoint save hardening, the EINTR retry
   wrappers, resource-exhaustion trapping, and the wire protocol. *)

open Fairmc_core
module W = Fairmc_workloads
module J = Fairmc_util.Json
module Retry = Fairmc_util.Retry
module Events = Fairmc_obs.Events

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let base = { Search_config.default with livelock_bound = Some 2_000 }

let verdict_kind (r : Report.t) = Report.verdict_name r.verdict

let field name = function
  | J.Obj kvs ->
    (match List.assoc_opt name kvs with
     | Some v -> v
     | None -> Alcotest.failf "report field %S missing" name)
  | _ -> Alcotest.failf "expected an object looking up %S" name

(* Everything wall-clock-derived measures real time and legitimately
   differs between runs; the rest of the stats must be bit-identical. *)
let deterministic_stats j =
  match field "stats" j with
  | J.Obj kvs ->
    J.Obj
      (List.filter
         (fun (k, _) ->
           not
             (List.mem k
                [ "elapsed_seconds"; "search_elapsed_seconds";
                  "executions_per_second"; "first_error_seconds"; "eta_seconds" ]))
         kvs)
  | _ -> Alcotest.fail "stats is not an object"

let assert_json_reports_equal name a b =
  check (name ^ ": verdict") true (J.equal (field "verdict" a) (field "verdict" b));
  let sa = deterministic_stats a and sb = deterministic_stats b in
  if not (J.equal sa sb) then
    Alcotest.failf "%s: deterministic stats differ:\n%s\n%s" name (J.to_string sa)
      (J.to_string sb)

let assert_reports_equal name a b =
  assert_json_reports_equal name (Report.to_json a) (Report.to_json b)

let check_with cfg prog = Checker.check ~config:cfg prog

let dining3 () = W.Dining.program ~n:3 W.Dining.Ordered

(* ------------------------------------------------------------------ *)
(* Zero-fault equivalence: -j N == -j 1                                *)
(* ------------------------------------------------------------------ *)

let equivalence_tests =
  [ Alcotest.test_case "zero faults: verified workload is bit-equal" `Quick (fun () ->
        let cfg = { base with coverage = true } in
        let seq = check_with cfg (dining3 ()) in
        let pool = check_with { cfg with jobs = 2 } (dining3 ()) in
        assert_reports_equal "dining-3" seq pool);
    Alcotest.test_case "zero faults: erroring workload is bit-equal" `Quick (fun () ->
        let cfg =
          { base with mode = Search_config.Context_bounded 2; coverage = true }
        in
        let prog = W.Litmus.race_assert () in
        let seq = check_with cfg prog in
        let pool = check_with { cfg with workers = 2 } prog in
        assert_reports_equal "race-assert" seq pool;
        (* Same counterexample schedule, found at the same DFS position. *)
        let decisions r =
          Option.map (fun (c : Report.counterexample) -> c.decisions) (Report.cex r)
        in
        check "counterexample decisions equal" true (decisions seq = decisions pool)) ]

(* ------------------------------------------------------------------ *)
(* Fault-injection matrix                                              *)
(* ------------------------------------------------------------------ *)

let pool_cfg = { base with coverage = true; jobs = 2 }

let fault_cfg cfg kind =
  let cfg =
    { cfg with Search_config.inject_fault = Some { fault_kind = kind; fault_seed = 1 } }
  in
  match kind with
  | Search_config.Hang -> { cfg with item_timeout = Some 0.4 }
  | Search_config.Save_fail ->
    { cfg with
      checkpoint = Some (Filename.temp_file "fairmc_savefail" ".ckpt");
      checkpoint_interval = 0. }
  | _ -> cfg

let fault_matrix_tests =
  List.map
    (fun kind ->
      let name = Search_config.fault_kind_name kind in
      Alcotest.test_case
        (Printf.sprintf "fault %s recovers to the clean report" name) `Quick
        (fun () ->
          let clean = check_with pool_cfg (dining3 ()) in
          let cfg = fault_cfg pool_cfg kind in
          let faulted = check_with cfg (dining3 ()) in
          Option.iter Sys.remove cfg.checkpoint;
          assert_reports_equal name clean faulted))
    Search_config.fault_kinds

(* ------------------------------------------------------------------ *)
(* Crash quarantine                                                    *)
(* ------------------------------------------------------------------ *)

let crash0 = Some { Search_config.fault_kind = Search_config.Crash; fault_seed = 0 }

let quarantine_tests =
  [ Alcotest.test_case "retry budget 0 quarantines the item as a crash" `Quick
      (fun () ->
        let r =
          check_with { base with workers = 2; max_retries = 0; inject_fault = crash0 } (dining3 ())
        in
        check_str "verdict key" "crash" (Report.verdict_key r.verdict);
        (* The counterexample is the quarantined item's schedule prefix —
           the same decisions the expansion locked for item 0. *)
        let items, _ =
          Search.expand base (dining3 ()) ~split_depth:Search_config.default.split_depth
        in
        let expected =
          match items with
          | first :: _ ->
            Array.to_list first
            |> List.map (fun (d : Search.pdecision) -> (d.Search.p_tid, d.Search.p_alt))
          | [] -> Alcotest.fail "expansion produced no items"
        in
        match Report.cex r with
        | Some c -> check "cex is the item's schedule prefix" true (c.decisions = expected)
        | None -> Alcotest.fail "a crash verdict carries a counterexample");
    Alcotest.test_case "a retry absorbs the crash instead" `Quick (fun () ->
        (* Same fault, default retry budget: re-run fault-free, verdict
           clean. *)
        let r = check_with { base with workers = 2; inject_fault = crash0 } (dining3 ()) in
        check_str "verdict key" "verified" (Report.verdict_key r.verdict)) ]

(* ------------------------------------------------------------------ *)
(* Sampling runs on the same pool                                      *)
(* ------------------------------------------------------------------ *)

let sampling_cfg = { base with mode = Search_config.Random_walk 2_000; jobs = 2 }

let sampling_tests =
  [ Alcotest.test_case "sampling: retry budget 0 quarantines the shard as a crash" `Quick
      (fun () ->
        let r =
          check_with { sampling_cfg with max_retries = 0; inject_fault = crash0 } (dining3 ())
        in
        check_str "verdict key" "crash" (Report.verdict_key r.verdict));
    Alcotest.test_case "sampling: faults with retries left keep the (seed, jobs) report"
      `Quick (fun () ->
        let clean = check_with sampling_cfg (dining3 ()) in
        check_str "clean verdict" "limits" (Report.verdict_key clean.verdict);
        check_int "clean executions" 2_000 clean.stats.executions;
        List.iter
          (fun kind ->
            let cfg = fault_cfg sampling_cfg kind in
            let faulted = check_with cfg (dining3 ()) in
            Option.iter Sys.remove cfg.checkpoint;
            assert_reports_equal (Search_config.fault_kind_name kind) clean faulted)
          [ Search_config.Crash; Search_config.Hang; Search_config.Garble ]);
    Alcotest.test_case "sampling: a failed checkpoint write posts checkpoint_error" `Quick
      (fun () ->
        let stream = Events.create ~collect:true () in
        let cfg =
          { sampling_cfg with
            mode = Search_config.Random_walk 20;
            checkpoint = Some "/nonexistent-dir/x/sampling.ckpt";
            events = Some stream }
        in
        let r = check_with cfg (dining3 ()) in
        check_str "verdict" "limits" (Report.verdict_key r.verdict);
        check "checkpoint_error posted" true
          (List.exists
             (fun (e : Events.event) -> e.Events.kind = "checkpoint_error")
             (Events.collected stream))) ]

(* ------------------------------------------------------------------ *)
(* One execution budget across workers                                 *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [ Alcotest.test_case "max_executions holds across workers" `Quick (fun () ->
        let prog =
          match W.Registry.find "wsq-2s-correct" with
          | Some e -> e.W.Registry.program
          | None -> Alcotest.fail "wsq-2s-correct is not registered"
        in
        List.iter
          (fun jobs ->
            let cfg = { Search_config.default with max_executions = Some 20_000; jobs } in
            let r = check_with cfg prog in
            let e = r.stats.executions in
            check_str (Printf.sprintf "j=%d verdict" jobs) "limits"
              (Report.verdict_key r.verdict);
            if e < 20_000 || e > 20_000 + jobs then
              Alcotest.failf "j=%d: %d executions, outside [20000, %d]" jobs e (20_000 + jobs))
          [ 2; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* SIGINT teardown + resume, via the CLI                               *)
(* ------------------------------------------------------------------ *)

(* The CLI is a declared dependency of the test stanza, built next to this
   executable; resolve it relative to the binary so the suite works under
   both [dune runtest] and [dune exec]. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "chess_cli.exe")

let report_of_cli ~expect args =
  if not (Sys.file_exists cli) then Alcotest.skip ();
  let file = Filename.temp_file "fairmc_suptest" ".json" in
  let cmd =
    Filename.quote_command cli (("check" :: args) @ [ "--json"; file ])
    ^ " >/dev/null 2>/dev/null"
  in
  check_int
    (Printf.sprintf "exit status of %s" (String.concat " " args))
    expect (Sys.command cmd);
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable report from %s: %s" (String.concat " " args) e

let interrupt_tests =
  [ Alcotest.test_case "SIGINT: exit 130, loadable checkpoint, exact resume" `Slow
      (fun () ->
        if not (Sys.file_exists cli) then Alcotest.skip ();
        let ckpt = Filename.temp_file "fairmc_sigint" ".ckpt" in
        Sys.remove ckpt;
        let baseline =
          report_of_cli ~expect:0
            [ "singularity-lite-2s-1a"; "-s"; "cb:2"; "--coverage"; "-j"; "2"; "-q" ]
        in
        (* Interrupt a checkpointed pool run mid-search: the Singularity-lite
           boot under cb=2 runs for well over a second under two workers,
           the signal lands at 0.3s — mid worker traffic, with checkpoint
           writes on every item (interval 0). *)
        let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process cli
            [| cli; "check"; "singularity-lite-2s-1a"; "-s"; "cb:2"; "--coverage"; "--workers"; "2";
               "--checkpoint"; ckpt; "--checkpoint-interval"; "0"; "-q" |]
            Unix.stdin dev_null dev_null
        in
        Unix.sleepf 0.3;
        Unix.kill pid Sys.sigint;
        let _, status = Retry.eintr (fun () -> Unix.waitpid [] pid) in
        Unix.close dev_null;
        (match status with
         | Unix.WEXITED 130 -> ()
         | Unix.WEXITED c -> Alcotest.failf "expected exit 130, got %d" c
         | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
         | Unix.WSTOPPED _ -> Alcotest.fail "stopped");
        (* The final checkpoint flush happened during teardown and must be
           loadable. *)
        (match Checkpoint.load ckpt with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "checkpoint not loadable after SIGINT: %s" e);
        (* --workers and -j name the same pool: the resume under -j 2
           merges to an uninterrupted run's totals. *)
        let resumed =
          report_of_cli ~expect:0
            [ "singularity-lite-2s-1a"; "-s"; "cb:2"; "--coverage"; "-j"; "2"; "--resume"; ckpt;
              "-q" ]
        in
        assert_json_reports_equal "resume after SIGINT" baseline resumed;
        Sys.remove ckpt) ]

(* ------------------------------------------------------------------ *)
(* In-process passthrough                                              *)
(* ------------------------------------------------------------------ *)

let dispatch_tests =
  [ Alcotest.test_case "workers=1 takes the in-process path" `Quick (fun () ->
        let cfg = { base with Search_config.workers = 1; coverage = true } in
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
        let a = Supervisor.run cfg prog in
        let b = Search.run cfg prog in
        check_str "verdict" (verdict_kind b) (verdict_kind a);
        check_int "executions" b.stats.executions a.stats.executions) ]

(* ------------------------------------------------------------------ *)
(* Checkpoint save hardening                                           *)
(* ------------------------------------------------------------------ *)

let save_hardening_tests =
  (* A real checkpoint value to save: produce one, load it back. *)
  let sample_ckpt () =
    let path = Filename.temp_file "fairmc_sample" ".ckpt" in
    let cfg =
      { base with
        fair = false;
        checkpoint = Some path;
        checkpoint_interval = 0.;
        max_executions = Some 2 }
    in
    let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
    ignore (Search.run cfg prog);
    match Checkpoint.load path with
    | Ok t ->
      Sys.remove path;
      t
    | Error e -> Alcotest.failf "could not produce a sample checkpoint: %s" e
  in
  [ Alcotest.test_case "transient save failures are retried" `Quick (fun () ->
        let t = sample_ckpt () in
        let path = Filename.temp_file "fairmc_retry" ".ckpt" in
        Sys.remove path;
        Checkpoint.inject_save_failures := 2;
        (match Checkpoint.save_result path t with
         | Ok () -> ()
         | Error e -> Alcotest.failf "save did not survive transient failures: %s" e);
        check_int "both injected failures consumed" 0 !Checkpoint.inject_save_failures;
        check "file written" true (Sys.file_exists path);
        (match Checkpoint.load path with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "retried save produced a bad file: %s" e);
        Sys.remove path);
    Alcotest.test_case "a failing save never clobbers the last good checkpoint" `Quick
      (fun () ->
        let t = sample_ckpt () in
        let path = Filename.temp_file "fairmc_noclobber" ".ckpt" in
        Sys.remove path;
        (match Checkpoint.save_result path t with
         | Ok () -> ()
         | Error e -> Alcotest.failf "initial save failed: %s" e);
        let good = In_channel.with_open_bin path In_channel.input_all in
        (* More injected failures than retry attempts: the save gives up. *)
        Checkpoint.inject_save_failures := 99;
        (match Checkpoint.save_result path t with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "save should have exhausted its retries");
        Checkpoint.inject_save_failures := 0;
        let now = In_channel.with_open_bin path In_channel.input_all in
        check "previous checkpoint intact" true (good = now);
        (match Checkpoint.load path with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "surviving checkpoint unreadable: %s" e);
        Sys.remove path);
    Alcotest.test_case "an unwritable path reports an error, not an exception" `Quick
      (fun () ->
        let t = sample_ckpt () in
        match Checkpoint.save_result "/nonexistent-dir/x/y.ckpt" t with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "save into a missing directory cannot succeed") ]

(* ------------------------------------------------------------------ *)
(* Retry wrappers                                                      *)
(* ------------------------------------------------------------------ *)

let retry_tests =
  [ Alcotest.test_case "eintr restarts interrupted calls" `Quick (fun () ->
        let calls = ref 0 in
        let v =
          Retry.eintr (fun () ->
              incr calls;
              if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "write", ""));
              7)
        in
        check_int "result" 7 v;
        check_int "restarted twice" 3 !calls);
    Alcotest.test_case "eintr is transparent to other errors" `Quick (fun () ->
        match Retry.eintr (fun () -> raise (Unix.Unix_error (Unix.EBADF, "write", ""))) with
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
        | _ -> Alcotest.fail "EBADF must not be swallowed");
    Alcotest.test_case "transient retries then succeeds" `Quick (fun () ->
        let calls = ref 0 in
        let r =
          Retry.transient ~attempts:4 ~base_delay:0.001
            ~retryable:(function Sys_error _ -> true | _ -> false)
            (fun () ->
              incr calls;
              if !calls < 3 then raise (Sys_error "flaky");
              "ok")
        in
        check "succeeded" true (r = Ok "ok");
        check_int "two retries" 3 !calls);
    Alcotest.test_case "transient gives up after its budget" `Quick (fun () ->
        let calls = ref 0 in
        let r =
          Retry.transient ~attempts:3 ~base_delay:0.001
            ~retryable:(function Sys_error _ -> true | _ -> false)
            (fun () ->
              incr calls;
              raise (Sys_error "always"))
        in
        check "failed" true (match r with Error (Sys_error _) -> true | _ -> false);
        check_int "attempt budget honored" 3 !calls);
    Alcotest.test_case "transient does not retry non-retryable exceptions" `Quick
      (fun () ->
        let calls = ref 0 in
        (match
           Retry.transient ~attempts:5 ~base_delay:0.001
             ~retryable:(function Sys_error _ -> true | _ -> false)
             (fun () ->
               incr calls;
               raise Exit)
         with
         | exception Exit -> ()
         | Ok _ | Error _ -> Alcotest.fail "non-retryable exceptions must propagate");
        check_int "single attempt" 1 !calls) ]

(* ------------------------------------------------------------------ *)
(* Resource exhaustion trapping                                        *)
(* ------------------------------------------------------------------ *)

(* Stack_overflow / Out_of_memory inside a thread must classify as a safety
   violation carrying the offending schedule, not tear down the checker. *)
let resource_tests =
  let resource_prog exn =
    Program.of_threads ~name:"resource-exhaustion" (fun () ->
        [ (fun () -> Sync.yield ()); (fun () -> Sync.yield (); raise exn) ])
  in
  let assert_resource name exn expected_msg =
    let r = Search.run base (resource_prog exn) in
    match r.verdict with
    | Report.Safety_violation { failure = Engine.Resource m; cex; _ } ->
      check (name ^ ": message") true (m = expected_msg);
      check (name ^ ": schedule consistent") true
        (List.length cex.decisions = cex.length)
    | v ->
      Alcotest.failf "%s: expected a resource safety violation, got %s" name
        (Report.verdict_key v)
  in
  [ Alcotest.test_case "stack overflow becomes a safety verdict" `Quick (fun () ->
        assert_resource "stack-overflow" Stack_overflow "stack overflow");
    Alcotest.test_case "out of memory becomes a safety verdict" `Quick (fun () ->
        assert_resource "oom" Out_of_memory "out of memory");
    Alcotest.test_case "resource verdicts survive the DSL backends" `Quick (fun () ->
        (* Both interpreter backends route uncaught engine-level exceptions
           through the same classification; a deeply recursive ChessLang
           program must come back as a verdict either way. Here the native
           engine path stands in for both: the VM and AST interpreters trap
           only their own error type and let resource exceptions reach the
           engine (see Vm.exec / Interp). *)
        assert_resource "engine-path" Stack_overflow "stack overflow") ]

(* ------------------------------------------------------------------ *)
(* Wire protocol units                                                 *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [ Alcotest.test_case "request/response roundtrip" `Quick (fun () ->
        let req = Worker.Run { q_index = 3; q_attempt = 1; q_time_left = Some 1.5 } in
        check "request" true (Worker.request_of_json (Worker.request_to_json req) = req);
        check "quit" true
          (Worker.request_of_json (Worker.request_to_json Worker.Quit) = Worker.Quit);
        let cex =
          { Report.rendered = "trace"; decisions = [ (0, 1); (1, 0) ]; length = 2 }
        in
        let report =
          { Report.verdict = Report.Crash { reason = "boom"; cex };
            stats = (Search.run base (W.Litmus.fig3 ())).stats;
            metrics = Fairmc_obs.Metrics.Snapshot.empty;
            analysis = None }
        in
        let resp =
          { Worker.r_index = 4;
            r_attempt = 0;
            r_report = report;
            r_states = [ 3L; 9L ];
            r_events = [ (true, "path", J.Obj [ ("steps", J.Int 2) ]) ] }
        in
        let back = Worker.response_of_json (Worker.response_to_json resp) in
        check "response index" true (back.Worker.r_index = 4);
        check "response states" true (back.Worker.r_states = [ 3L; 9L ]);
        check "response events" true (back.Worker.r_events = resp.Worker.r_events);
        match back.Worker.r_report.Report.verdict with
        | Report.Crash { reason = "boom"; cex = c } ->
          check "cex decisions" true (c.decisions = cex.decisions)
        | _ -> Alcotest.fail "crash verdict did not roundtrip");
    Alcotest.test_case "frames reassemble across a pipe" `Quick (fun () ->
        let r, w = Unix.pipe () in
        let doc = J.Obj [ ("k", J.Str "v") ] in
        Worker.send w doc;
        let buf = Worker.inbuf () in
        (match Worker.feed buf r with
         | `Data _ -> ()
         | `Eof -> Alcotest.fail "unexpected EOF");
        (match Worker.extract buf with
         | Ok (Some got) -> check "frame payload" true (J.equal got doc)
         | Ok None -> Alcotest.fail "frame incomplete"
         | Error e -> Alcotest.failf "frame rejected: %s" e);
        Unix.close r;
        Unix.close w);
    Alcotest.test_case "garbled bytes are a protocol error" `Quick (fun () ->
        let r, w = Unix.pipe () in
        let junk = Bytes.of_string "!!not-a-frame!!" in
        ignore (Unix.write w junk 0 (Bytes.length junk));
        let buf = Worker.inbuf () in
        (match Worker.feed buf r with
         | `Data _ -> ()
         | `Eof -> Alcotest.fail "unexpected EOF");
        (match Worker.extract buf with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "garbage must not parse as a frame");
        Unix.close r;
        Unix.close w) ]

let suite =
  equivalence_tests @ fault_matrix_tests @ quarantine_tests @ interrupt_tests
  @ dispatch_tests @ save_hardening_tests @ retry_tests @ resource_tests
  @ protocol_tests @ sampling_tests @ budget_tests
