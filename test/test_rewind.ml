(* Rewinding versus re-execution. A ChessLang run can be saved, so the
   systematic search rewinds it to a backtracking point instead of booting
   the program again and replaying the prefix. Every report must be exactly
   the one the same search produces when the program withholds its saver
   and every backtrack re-executes from the initial state. *)

open Fairmc_core
module D = Fairmc_dsl
module MS = Fairmc_obs.Metrics.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The program with its saver withheld: the search falls back to replay. *)
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
              check_int (what ^ ": replaying restores nothing") 0
                (counter replayed.Report.metrics "search/steps/restored");
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

let suite =
  [ Alcotest.test_case "engine save/rewind round trip" `Quick engine;
    Alcotest.test_case "rewinding reports = replaying reports, every example" `Quick
      differential;
    Alcotest.test_case "resume: replayed first path, rewound later paths" `Quick resume ]
