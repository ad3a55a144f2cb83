(* Rewinding versus re-execution. A ChessLang run can be saved, so the
   systematic search rewinds it to a backtracking point instead of booting
   the program again. Without a saver (native programs, or a ChessLang
   program that withholds it) the search re-executes the prefix in the
   engine alone and restores its own registers from the frame. Both must
   produce exactly the report the search produced when every backtrack
   replayed the prefix through the whole search loop. *)

open Fairmc_core
module D = Fairmc_dsl
module MS = Fairmc_obs.Metrics.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The program with its saver withheld: the search re-executes instead. *)
let replaying (p : Program.t) =
  { p with Program.boot = (fun () -> { (p.Program.boot ()) with Program.saver = None }) }

let load ~static_por path =
  if static_por then Fairmc_static.load_file path else D.compile (D.Parser.parse_file path)

let counter snap name =
  match MS.find snap name with Some (MS.Counter v) -> v | _ -> 0

(* Everything deterministic in a metrics snapshot: the counters with the
   prefix steps folded (replaying counts them under "replay", rewinding
   under "restored"), and the gauges and histograms other than wall-clock
   ones. *)
let det_metrics snap =
  ( Test_checkpoint.prefix_folded snap,
    List.filter
      (fun (name, e) ->
        (match e with MS.Counter _ -> false | MS.Gauge _ | MS.Histogram _ -> true)
        && not (String.starts_with ~prefix:"time/" name || String.starts_with ~prefix:"span/" name))
      (MS.entries snap) )

let same_report what (a : Report.t) (b : Report.t) =
  check (what ^ ": verdict and counterexample") true (a.Report.verdict = b.Report.verdict);
  check (what ^ ": stats") true
    (Test_checkpoint.strip_time a.Report.stats = Test_checkpoint.strip_time b.Report.stats);
  check (what ^ ": metrics") true (det_metrics a.Report.metrics = det_metrics b.Report.metrics)

let programs () =
  match Test_static.fixture_dir "programs" with
  | None -> []
  | Some dir -> List.map (Filename.concat dir) (Test_static.chess_files dir)

let base =
  { Search_config.default with max_executions = Some 1_500; metrics = true; coverage = true }

let differential () =
  let files = programs () in
  let restored = ref 0 in
  List.iter
    (fun path ->
      List.iter
        (fun static_por ->
          let prog = load ~static_por path in
          List.iter
            (fun (mode, sleep_sets) ->
              let cfg = { base with Search_config.mode; sleep_sets } in
              let what =
                Printf.sprintf "%s %s%s%s" (Filename.basename path) (Search_config.mode_name mode)
                  (if sleep_sets then " +ss" else "")
                  (if static_por then " +por" else "")
              in
              let rewound = Search.run cfg prog in
              let replayed = Search.run cfg (replaying prog) in
              same_report what replayed rewound;
              check_int (what ^ ": rewinding replays nothing") 0
                (counter rewound.Report.metrics "search/steps/replay");
              check_int (what ^ ": re-executing restores nothing") 0
                (counter replayed.Report.metrics "search/steps/restored");
              check_int (what ^ ": re-execution replays what rewinding restores")
                (counter rewound.Report.metrics "search/steps/restored")
                (counter replayed.Report.metrics "search/steps/replay");
              restored := !restored + counter rewound.Report.metrics "search/steps/restored")
            [ (Search_config.Dfs, false);
              (Search_config.Dfs, true);
              (Search_config.Context_bounded 2, false);
              (Search_config.Context_bounded 2, true) ])
        [ true; false ])
    files;
  if files <> [] then check "some paths were rewound" true (!restored > 0)

(* A resumed session has no snapshots for the frames it loads: its first
   path replays the prefix, and later backtracks rewind. *)
let resume () =
  match Test_static.fixture_dir "programs" with
  | None -> ()
  | Some dir ->
    let prog = load ~static_por:true (Filename.concat dir "bounded_buffer.chess") in
    let cfg = { base with Search_config.max_executions = None } in
    let full, resumed = Test_checkpoint.resume_equal cfg prog ~cut:1_000 in
    check "first resumed path replays" true
      (counter resumed.Report.metrics "search/steps/replay" > 0);
    check "later resumed paths rewind" true
      (counter resumed.Report.metrics "search/steps/restored" > 0);
    same_report "uninterrupted vs replayed" (Search.run cfg (replaying prog)) full;
    same_report "uninterrupted vs resumed" full resumed

(* Engine level: a rewound run is the saved run, and stepping it again along
   the abandoned schedule reaches the same state. *)
let engine () =
  match Test_static.fixture_dir "programs" with
  | None -> ()
  | Some dir ->
    let prog = load ~static_por:false (Filename.concat dir "peterson.chess") in
    let run = Engine.start prog in
    Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
    check "VM runs are saveable" true (Engine.saveable run);
    let step_first () =
      let tid = Fairmc_util.Bitset.min_elt (Engine.enabled_set run) in
      Engine.step run ~tid ~alt:0
    in
    let view () =
      ( Engine.state_signature run,
        Engine.steps run,
        Trace.decisions (Engine.trace run),
        Array.copy (Engine.op_counts run),
        Engine.sync_ops run,
        Engine.var_ops run,
        Engine.context_switches run )
    in
    for _ = 1 to 5 do step_first () done;
    let sv = Engine.save run and at_save = view () in
    for _ = 1 to 9 do step_first () done;
    let later = view () in
    Engine.rewind run sv;
    check "rewind restores the saved state" true (view () = at_save);
    for _ = 1 to 9 do step_first () done;
    check "same schedule, same state" true (view () = later);
    Engine.rewind run sv;
    check "a save can be rewound to twice" true (view () = at_save)

(* A compiled program's threads are explicit-state machines: driven by hand,
   with no effect handler installed (a [Sync] operation or any effect would
   raise), each step delivers the engine's result and yields the thread's
   next operation. Under fixed schedules that op stream must be the engine
   trace, and the final pending operations must match the engine's. *)
let machine_without_effects () =
  let module Bs = Fairmc_util.Bitset in
  let module Rng = Fairmc_util.Rng in
  let files = programs () in
  List.iter
    (fun path ->
      let prog = load ~static_por:true path in
      List.iter
        (fun seed ->
          let rng = Rng.make (Int64.of_int seed) in
          let run = Engine.start prog in
          let steps = ref 0 in
          while
            !steps < 200 && Engine.failure run = None
            && not (Bs.is_empty (Engine.enabled_set run))
          do
            let es = Bs.elements (Engine.enabled_set run) in
            let tid = List.nth es (Rng.int rng (List.length es)) in
            Engine.step run ~tid ~alt:(Rng.int rng (Engine.alternatives run tid));
            incr steps
          done;
          let events = Trace.events (Engine.trace run) in
          let n = Engine.nthreads run in
          let final = List.init n (Engine.pending run) in
          Engine.stop run;
          let what = Printf.sprintf "%s seed %d" (Filename.basename path) seed in
          ignore (Runtime.reset (Objects.create ()));
          let booted = prog.Program.boot () in
          let m = Option.get booted.Program.machine in
          check_int (what ^ ": every thread is a machine thread") n m.Program.count;
          check (what ^ ": no native threads") true (booted.Program.threads = []);
          let pending = Array.init n (fun tid -> m.Program.run tid 0) in
          List.iter
            (fun (e : Trace.event) ->
              let tid = e.Trace.tid in
              check (what ^ ": op stream = engine trace") true
                (match pending.(tid) with Some op -> Op.equal op e.Trace.op | None -> false);
              let result =
                match e.Trace.op with Op.Choose _ -> e.Trace.alt | _ -> Bool.to_int e.Trace.result
              in
              pending.(tid) <- m.Program.run tid result;
              check (what ^ ": machine pending = returned op") true
                (m.Program.pending tid = pending.(tid)))
            events;
          check (what ^ ": final pending operations") true (Array.to_list pending = final))
        [ 1; 2; 3 ])
    files

(* Runtime errors reached only after a backtrack: thread b divides by,
   indexes with, or spins silently on a value it reads before a writes it,
   so the first execution (a first) passes and the error path is rewound
   to. The report must be the AST interpreter's, and the one re-execution
   (saver withheld) gives. *)
let runtime_errors_after_backtrack () =
  let cases =
    [ ("division by zero", "thread b { local d = x; local r = 10 / d; }");
      ("index out of bounds", "thread b { local i = x; arr[i - 1] = 5; }");
      ("silent fuel", "thread b { local d = x; while (d == 0) { local k = 1; } }");
      ("atomic fuel", "thread b { local d = x; atomic { while (d == 0) { skip; } } }") ]
  in
  List.iter
    (fun (what, thread_b) ->
      let ast =
        D.Parser.parse_string ("array arr[2]; var x = 0; thread a { x = 1; } " ^ thread_b)
      in
      let cfg = { base with Search_config.max_executions = None } in
      let rewound = Search.run cfg (D.Vm.compile ast) in
      check (what ^ ": a safety violation") true
        (match rewound.Report.verdict with Report.Safety_violation _ -> true | _ -> false);
      check (what ^ ": found after a backtrack") true (rewound.Report.stats.Report.executions > 1);
      check (what ^ ": the failing path was rewound to") true
        (counter rewound.Report.metrics "search/steps/restored" > 0);
      same_report (what ^ ": AST oracle") (Search.run cfg (D.Machine.compile ast)) rewound;
      same_report (what ^ ": re-execution") (Search.run cfg (replaying (D.Vm.compile ast))) rewound)
    cases

(* Native programs cannot be saved: their continuations are one-shot, so
   backtracking re-executes the engine from the initial state up to the
   frame and restores the search registers from the frame. Their reports
   must be exactly the ones recorded when every backtrack replayed the
   prefix through the whole search loop: verdict and counterexample, stats,
   and the deterministic metrics with the prefix steps folded. A digest
   covers them all; executions and transitions are spelled out so that a
   mismatch reads at a glance. *)
let native_cases =
  let cfg = Search_config.default in
  [ ("dining-3-ordered", "dining-3-ordered", cfg);
    ("dining-2-deadlock", "dining-2-deadlock", cfg);
    ("promise-stale-cache", "promise-stale-cache", cfg);
    ("wsq-2s-correct", "wsq-2s-correct", { cfg with Search_config.max_executions = Some 1_500 });
    ("fig1", "dining-2-tryacquire+yield", { cfg with Search_config.livelock_bound = Some 400 }) ]

let native_configs =
  let modes =
    [ ("dfs", Search_config.Dfs, false);
      ("dfs+ss", Search_config.Dfs, true);
      ("cb2", Search_config.Context_bounded 2, false);
      ("cb2+ss", Search_config.Context_bounded 2, true) ]
  in
  List.concat_map
    (fun (name, mode, sleep_sets) ->
      [ ( name ^ " metrics+coverage",
          fun (c : Search_config.t) ->
            { c with Search_config.mode; sleep_sets; metrics = true; coverage = true } );
        ( name ^ " races",
          fun (c : Search_config.t) ->
            { c with
              Search_config.mode;
              sleep_sets;
              metrics = true;
              analyses = [ Fairmc_analysis.Hb_race.analysis ] } ) ])
    modes

let native_digest (r : Report.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Report.verdict,
            Test_checkpoint.strip_time r.Report.stats,
            det_metrics r.Report.metrics,
            r.Report.analysis )
          [ Marshal.No_sharing ]))

let native_runs () =
  List.concat_map
    (fun (case, prog_name, cfg) ->
      let prog =
        match Fairmc_workloads.Registry.find prog_name with
        | Some e -> e.Fairmc_workloads.Registry.program
        | None -> Alcotest.failf "no program %s" prog_name
      in
      List.map
        (fun (cname, with_cfg) ->
          (case ^ " " ^ cname, Search.run (with_cfg cfg) prog))
        native_configs)
    native_cases

(* Recorded with the loop-replaying search. *)
let native_golden =
  [ ("dining-3-ordered dfs metrics+coverage", 1853, 50031, "ce3439f2bc43f72b3a715af19d57fb31");
    ("dining-3-ordered dfs races", 1853, 50031, "ed7235e7355da3b1649de9cdf458ceb7");
    ("dining-3-ordered dfs+ss metrics+coverage", 30, 503, "1cc6d15eb982338e90f140a27ee36765");
    ("dining-3-ordered dfs+ss races", 30, 503, "4164b4a464cf6076d363ee3598344cf0");
    ("dining-3-ordered cb2 metrics+coverage", 250, 6750, "6fba1c3e93ef0f366412a2f198ff3106");
    ("dining-3-ordered cb2 races", 250, 6750, "d6c18fe32c2b252a7922d2f2e27568d3");
    ("dining-3-ordered cb2+ss metrics+coverage", 29, 486, "da811ae35060826871033b9489d65443");
    ("dining-3-ordered cb2+ss races", 29, 486, "ced8af53f2f3a581a5638229e191c053");
    ("dining-2-deadlock dfs metrics+coverage", 3, 38, "7c61f4aa4a1af3ea57d5227aa7dd4ff8");
    ("dining-2-deadlock dfs races", 3, 38, "67987be3c3952eda2e4ade3b946681c9");
    ("dining-2-deadlock dfs+ss metrics+coverage", 3, 29, "925fec56ad0213070d84580a9ec7648f");
    ("dining-2-deadlock dfs+ss races", 3, 29, "f19ce957fb931f3435f44f3900da679b");
    ("dining-2-deadlock cb2 metrics+coverage", 3, 38, "7c61f4aa4a1af3ea57d5227aa7dd4ff8");
    ("dining-2-deadlock cb2 races", 3, 38, "67987be3c3952eda2e4ade3b946681c9");
    ("dining-2-deadlock cb2+ss metrics+coverage", 3, 29, "925fec56ad0213070d84580a9ec7648f");
    ("dining-2-deadlock cb2+ss races", 3, 29, "f19ce957fb931f3435f44f3900da679b");
    ("promise-stale-cache dfs metrics+coverage", 5, 10028, "765aa302355f24c4eba6e247e048f081");
    ("promise-stale-cache dfs races", 1, 7, "874c022682900aef31746f389f48b186");
    ("promise-stale-cache dfs+ss metrics+coverage", 3, 10013, "bbda74f7574d2648a10f3d70d67b3aa2");
    ("promise-stale-cache dfs+ss races", 1, 7, "874c022682900aef31746f389f48b186");
    ("promise-stale-cache cb2 metrics+coverage", 5, 10028, "765aa302355f24c4eba6e247e048f081");
    ("promise-stale-cache cb2 races", 1, 7, "874c022682900aef31746f389f48b186");
    ("promise-stale-cache cb2+ss metrics+coverage", 3, 10013, "bbda74f7574d2648a10f3d70d67b3aa2");
    ("promise-stale-cache cb2+ss races", 1, 7, "874c022682900aef31746f389f48b186");
    ("wsq-2s-correct dfs metrics+coverage", 1500, 91500, "0d5eefb300bb52e489e01e396a9b49f0");
    ("wsq-2s-correct dfs races", 1500, 91500, "52c323b7b6f7d7d5479e56da4fd22d67");
    ("wsq-2s-correct dfs+ss metrics+coverage", 1500, 84363, "b0d694df88c9ed4919c2c6c784c1df11");
    ("wsq-2s-correct dfs+ss races", 1500, 84363, "5ce33ff35a5a45aed2f409f1d62d2c0b");
    ("wsq-2s-correct cb2 metrics+coverage", 1500, 91500, "4c2934399f3dfce06265583033eace2f");
    ("wsq-2s-correct cb2 races", 1500, 91500, "0468603967b3898e6d90fae99dba725e");
    ("wsq-2s-correct cb2+ss metrics+coverage", 1500, 81950, "1191fa4253773ebfe254007cc6202a77");
    ("wsq-2s-correct cb2+ss races", 1216, 66434, "c4249564c2e1092b740db161b0a63081");
    ("fig1 dfs metrics+coverage", 353, 74640, "c68ce7557a02c86d6c043c901fcfab7f");
    ("fig1 dfs races", 353, 74640, "a2072322f95d162d9e28768f688116d2");
    ("fig1 dfs+ss metrics+coverage", 353, 74640, "c68ce7557a02c86d6c043c901fcfab7f");
    ("fig1 dfs+ss races", 353, 74640, "a2072322f95d162d9e28768f688116d2");
    ("fig1 cb2 metrics+coverage", 34, 916, "fa207710147f5aee82e0d731185034e4");
    ("fig1 cb2 races", 34, 916, "fa2891f8908d0b038add47726f3f9c03");
    ("fig1 cb2+ss metrics+coverage", 18, 476, "a05b8cee40a4f38bf389548e6d6f95f2");
    ("fig1 cb2+ss races", 18, 476, "0820a3cd1f67c87638ec32226c462c4f") ]

let native () =
  let runs = native_runs () in
  check_int "one golden per run" (List.length native_golden) (List.length runs);
  List.iter2
    (fun (name, execs, trans, digest) (name', (r : Report.t)) ->
      Alcotest.(check string) "case" name name';
      check_int (name ^ ": executions") execs r.Report.stats.Report.executions;
      check_int (name ^ ": transitions") trans r.Report.stats.Report.transitions;
      Alcotest.(check string) (name ^ ": report digest") digest (native_digest r);
      check_int (name ^ ": native runs are never rewound") 0
        (counter r.Report.metrics "search/steps/restored"))
    native_golden runs

(* Re-execution trusts the stateless contract: booting again and taking the
   same decisions reaches the same node. A program that breaks it must stop
   the search with an error naming it and the step, not explore a subtree of
   some other node. This one counts its boots in a global: after the first,
   thread 1 competes for the lock instead of yielding. *)
let nondeterministic () =
  let boots = ref 0 in
  let prog =
    Program.of_threads ~name:"boot-counter" (fun () ->
        incr boots;
        let first = !boots = 1 in
        let m = Sync.Mutex.create () in
        [ (fun () ->
            Sync.Mutex.lock m;
            Sync.Mutex.unlock m);
          (fun () ->
            if first then begin
              Sync.yield ();
              Sync.yield ()
            end
            else begin
              Sync.Mutex.lock m;
              Sync.Mutex.unlock m
            end) ])
  in
  Alcotest.check_raises "names the program and the step"
    (Failure
       "Search: program boot-counter is not deterministic: re-executing the path prefix \
        reached a different enabled set at step 1")
    (fun () -> ignore (Search.run Search_config.default prog))

let suite =
  [ Alcotest.test_case "engine save/rewind round trip" `Quick engine;
    Alcotest.test_case "rewinding reports = replaying reports, every example" `Quick
      differential;
    Alcotest.test_case "native re-execution reports = recorded replay reports" `Quick native;
    Alcotest.test_case "re-execution stops a nondeterministic program" `Quick nondeterministic;
    Alcotest.test_case "resume: replayed first path, rewound later paths" `Quick resume;
    Alcotest.test_case "VM machines step without effects: op stream = engine trace" `Quick
      machine_without_effects;
    Alcotest.test_case "runtime errors after a backtrack: rewound = AST = re-executed" `Quick
      runtime_errors_after_backtrack ]
