(* fmbench — the measuring process of the benchmark driven by run.py.

   Every subcommand runs in a fresh process started by run.py, prints one
   JSON object as its last stdout line and exits; run.py owns repetition,
   statistics and the verdict/count checks. The process never creates a
   domain (except `budget --backend domains`, which runs alone in its own
   process), so the forked worker pool and chessd really fork.

   Subcommands:
     check WORKLOAD [--setup-only] [--trace] [--metrics] [--events-null]
         [--max-execs N]
         one `chess check`-equivalent run of peterson-verify, fig1-livelock
         or peterson-workers2. Prints "ready" once set-up (program load,
         parse, static passes, compile) is done, before the first schedule.
     mix --chessd EXE --dir DIR --seed N --rounds R [--setups K] [--trace]
         the chessd-mix closed loop against a fresh daemon.
     calib
         the calibration kernel, which uses none of the checker's code.
     layers --subject peterson|fig1 --seed N [--quick]
         per-layer probes that call each layer's public functions directly.
     budget --backend workers|domains --budget N
         the budget-overrun probe on wsq-2s-correct.

   Spans (name, start, end, parent) are recorded only here, around calls
   into the checker's libraries; nothing inside lib/ is instrumented. *)

open Fairmc_core
module J = Fairmc_util.Json
module D = Fairmc_dsl
module S = Fairmc_static
module W = Fairmc_workloads
module Snap = Fairmc_obs.Metrics.Snapshot
module B = Fairmc_util.Bitset
module Rng = Fairmc_util.Rng
module Serve = Fairmc_serve
module P = Fairmc_serve.Protocol

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("fmbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Clock and spans                                                     *)

let now_ns () = Monotonic_clock.now ()
let t_origin = now_ns ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let secs_since t0 = ns_between t0 (now_ns ()) /. 1e9

type span = {
  id : int;
  name : string;
  parent : int;
  start_ns : int64;
  mutable end_ns : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let current_span = ref (-1)
let span_count = ref 0

(* Time [f] as a span named [name], child of the enclosing span. A no-op
   wrapper unless tracing is on. *)
let span name f =
  if not !tracing then f ()
  else begin
    let s =
      { id = !span_count; name; parent = !current_span; start_ns = now_ns ();
        end_ns = 0L }
    in
    incr span_count;
    spans := s :: !spans;
    let saved = !current_span in
    current_span := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- now_ns ();
        current_span := saved)
      f
  end

(* Record an already-timed interval as a span of the enclosing one. *)
let add_span name start_ns end_ns =
  if !tracing then begin
    spans :=
      { id = !span_count; name; parent = !current_span; start_ns; end_ns } :: !spans;
    incr span_count
  end

let durations_ns name =
  List.filter_map
    (fun s -> if s.name = name then Some (ns_between s.start_ns s.end_ns) else None)
    !spans

let spans_json () =
  let us t = J.Float (ns_between t_origin t /. 1e3) in
  J.Arr
    (List.rev_map
       (fun s ->
         J.Obj
           [ ("id", J.Int s.id); ("name", J.Str s.name); ("parent", J.Int s.parent);
             ("start_us", us s.start_ns); ("end_us", us s.end_ns) ])
       !spans)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let emit fields =
  print_endline (J.to_string (J.Obj fields));
  flush stdout

(* ------------------------------------------------------------------ *)
(* The three check workloads                                           *)

let peterson_file = "examples/programs/peterson.chess"
let fig1_name = "dining-2-tryacquire+yield"

(* `chess check`'s defaults: its --seed default and the library config. *)
let cli_config = { Search_config.default with seed = 24141L }

let workload_config = function
  | "peterson-verify" -> cli_config
  | "fig1-livelock" -> { cli_config with livelock_bound = Some 4000 }
  | "peterson-workers2" -> { cli_config with workers = 2 }
  | w -> die "unknown check workload %S" w

(* Load a ChessLang file exactly as `chess check` does with static POR on
   (the default): parse, lint summary, static compile. *)
let load_chess path =
  let ast = span "dsl.parse" (fun () -> D.Parser.parse_file path) in
  let _lint = span "static.lint" (fun () -> S.Lint.summary_json (S.Lint.run ast)) in
  span "static.compile" (fun () -> S.compile ~backend:`Vm ast)

let registry_program name =
  match W.Registry.find name with
  | Some e -> e.W.Registry.program
  | None -> die "unknown built-in program %S" name

let workload_program = function
  | "peterson-verify" | "peterson-workers2" -> load_chess peterson_file
  | "fig1-livelock" -> span "registry.find" (fun () -> registry_program fig1_name)
  | w -> die "unknown check workload %S" w

let counter snap name =
  match Snap.find snap name with
  | Some (Snap.Counter v) | Some (Snap.Gauge v) -> v
  | _ -> 0

let check_cmd args =
  let workload = match args with w :: _ -> w | [] -> die "check: missing workload" in
  let has f = List.mem f args in
  tracing := has "--trace";
  let result =
    span "check" @@ fun () ->
    let prog = span "setup" (fun () -> workload_program workload) in
    let cfg = workload_config workload in
    let cfg = if has "--metrics" then { cfg with metrics = true } else cfg in
    let rec budget = function
      | "--max-execs" :: n :: _ -> Some (int_of_string n)
      | _ :: rest -> budget rest
      | [] -> None
    in
    let cfg = { cfg with max_executions = budget args } in
    let cfg =
      if has "--events-null" then
        { cfg with events = Some (Fairmc_obs.Events.create ~write:ignore ()) }
      else cfg
    in
    print_endline "ready";
    flush stdout;
    if has "--setup-only" then None
    else begin
      (* The forked pool must really fork: a fallback to in-process domains
         would measure a different executor. *)
      if cfg.workers > 1 && not (span "supervisor.can_fork" Supervisor.can_fork) then
        die "forking unavailable: the worker pool would fall back to domains";
      let gc0 = Gc.quick_stat () and words0 = Gc.minor_words () in
      let t0 = now_ns () in
      let report = span "search" (fun () -> Checker.check ~config:cfg prog) in
      let verdict_s = secs_since t0 in
      let gc1 = Gc.quick_stat () and words1 = Gc.minor_words () in
      Some (report, verdict_s, gc1.Gc.major_collections - gc0.Gc.major_collections, words1 -. words0)
    end
  in
  match result with
  | None -> emit [ ("workload", J.Str workload); ("setup_only", J.Bool true) ]
  | Some (report, verdict_s, major_collections, minor_words) ->
    let st = report.Report.stats in
    let m = report.Report.metrics in
    emit
      [ ("workload", J.Str workload);
        ("verdict", J.Str (Report.verdict_key report.Report.verdict));
        ("executions", J.Int st.executions);
        ("transitions", J.Int st.transitions);
        ("yields", J.Int st.yields);
        ("verdict_s", J.Float verdict_s);
        ("gc_minor_words", J.Float minor_words);
        ("gc_major_collections", J.Int major_collections);
        ( "counters",
          J.Obj
            (List.map
               (fun n -> (n, J.Int (counter m n)))
               [ "search/steps/replay"; "search/steps/fresh";
                 "sched/priority_edges_added" ]) );
        ("spans", spans_json ()) ]

(* ------------------------------------------------------------------ *)
(* Budget-overrun probe                                                *)

let budget_cmd args =
  let rec parse backend budget = function
    | "--backend" :: b :: rest -> parse b budget rest
    | "--budget" :: n :: rest -> parse backend (int_of_string n) rest
    | [] -> (backend, budget)
    | a :: _ -> die "budget: unexpected argument %S" a
  in
  let backend, budget = parse "workers" 20_000 args in
  let cfg = { cli_config with max_executions = Some budget } in
  let cfg =
    match backend with
    | "workers" -> { cfg with workers = 2 }
    | "domains" -> { cfg with jobs = 2 }
    | b -> die "budget: unknown backend %S" b
  in
  let report = Checker.check ~config:cfg (registry_program "wsq-2s-correct") in
  emit
    [ ("backend", J.Str backend); ("budget", J.Int budget);
      ("executions", J.Int report.Report.stats.executions);
      ("verdict", J.Str (Report.verdict_key report.Report.verdict)) ]

(* ------------------------------------------------------------------ *)
(* Layer probes                                                        *)

(* Run [f] [n] times, each as its own span named [name]; return the median
   span duration in ns. *)
let probe name n f =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (span name f))
  done;
  median (durations_ns name)

type walk_step = {
  w_tid : int;
  w_alt : int;
  w_yielded : bool;
  w_before : B.t;
  w_after : B.t;
  w_spawned : int;
}

(* One seeded fair walk until the execution ends or reaches [cap] steps.
   It mostly switches to the next schedulable thread after the last one
   (the interleaving that drives the fig1 livelock to the 4,000-step bound,
   like most of the search's paths) and otherwise picks a uniformly random
   schedulable thread. Records the decisions and the (chosen, yielded,
   enabled before/after) stream that the fair scheduler consumes. *)
let record_walk rng prog ~cap =
  let run = Engine.start prog in
  Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
  let fair = ref (Fair_sched.create ~nthreads:(Engine.nthreads run) ()) in
  let steps = ref [] in
  let n = ref 0 in
  let last = ref (-1) in
  while
    !n < cap
    && Engine.failure run = None
    && (not (Engine.all_finished run))
    && not (Engine.deadlocked run)
  do
    let es_before = Engine.enabled_set run in
    let sched = Fair_sched.schedulable !fair ~enabled:es_before in
    let tid =
      if Rng.int rng 128 = 0 then B.nth sched (Rng.int rng (B.cardinal sched))
      else
        match B.elements (B.filter (fun t -> t > !last) sched) with
        | t :: _ -> t
        | [] -> B.min_elt sched
    in
    last := tid;
    let alts = Engine.alternatives run tid in
    let alt = if alts > 1 then Rng.int rng alts else 0 in
    let yielded = Engine.would_yield run tid in
    let nth = Engine.nthreads run in
    Engine.step run ~tid ~alt;
    let spawned = Engine.nthreads run - nth in
    for _ = 1 to spawned do
      fair := Fair_sched.add_thread !fair
    done;
    let es_after = Engine.enabled_set run in
    fair := Fair_sched.step !fair ~chosen:tid ~yielded ~es_before ~es_after;
    steps :=
      { w_tid = tid; w_alt = alt; w_yielded = yielded; w_before = es_before;
        w_after = es_after; w_spawned = spawned }
      :: !steps;
    incr n
  done;
  Array.of_list (List.rev !steps)

let subject_program = function
  | "peterson" -> (S.compile ~backend:`Vm (D.Parser.parse_file peterson_file), 64)
  | "fig1" -> (registry_program fig1_name, 4000)
  | s -> die "layers: unknown subject %S" s

(* A mid-search checkpoint of peterson-verify: the sequential search is
   stopped by an execution budget halfway, which flushes its DFS state. *)
let make_checkpoint path =
  let prog = S.compile ~backend:`Vm (D.Parser.parse_file peterson_file) in
  let cfg =
    { cli_config with max_executions = Some 80_250; checkpoint = Some path;
      checkpoint_interval = 1e9 }
  in
  ignore (Checker.check ~config:cfg prog)

(* Send each frame to a forked echo child and read it back. *)
let frame_rtt_ns frame ~reps =
  let to_child_r, to_child_w = Unix.pipe ~cloexec:true () in
  let to_parent_r, to_parent_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close to_child_w;
    Unix.close to_parent_r;
    let rec loop () =
      match Worker.recv to_child_r with
      | Ok (Some j) ->
        Worker.send to_parent_w j;
        loop ()
      | Ok None | Error _ -> ()
    in
    loop ();
    Unix._exit 0
  | pid ->
    Unix.close to_child_r;
    Unix.close to_parent_w;
    let ok = ref true in
    let d =
      probe "par.frame_rtt" reps (fun () ->
          Worker.send to_child_w frame;
          match Worker.recv to_parent_r with
          | Ok (Some _) -> ()
          | _ -> ok := false)
    in
    Unix.close to_child_w;
    ignore (Unix.waitpid [] pid);
    Unix.close to_parent_r;
    if not !ok then die "frame echo failed";
    d

let layers_cmd args =
  let rec parse subject seed quick dir = function
    | "--subject" :: s :: rest -> parse s seed quick dir rest
    | "--seed" :: n :: rest -> parse subject (int_of_string n) quick dir rest
    | "--dir" :: d :: rest -> parse subject seed quick d rest
    | "--quick" :: rest -> parse subject seed true dir rest
    | [] -> (subject, seed, quick, dir)
    | a :: _ -> die "layers: unexpected argument %S" a
  in
  let subject, seed, quick, dir = parse "peterson" 1 false "." args in
  tracing := true;
  let reps n = if quick then max 3 (n / 10) else n in
  let out = ref [] in
  let put name v = out := (name, J.Float v) :: !out in
  span "layers" @@ fun () ->
  (* Front end and static passes, on the peterson source. *)
  let ast = D.Parser.parse_file peterson_file in
  put "dsl.parse_us" (probe "dsl.parse" (reps 300) (fun () -> D.Parser.parse_file peterson_file) /. 1e3);
  let vis = S.Visibility.analyze ast in
  let invisible n = List.mem n vis.S.Visibility.invisible in
  put "static.analyze_us" (probe "static.analyze" (reps 300) (fun () -> S.Visibility.analyze ast) /. 1e3);
  put "dsl.compile_us"
    (probe "dsl.compile" (reps 300) (fun () -> D.compile ~backend:`Vm ~invisible ast) /. 1e3);
  put "static.lint_us" (probe "static.lint" (reps 300) (fun () -> S.Lint.run ast) /. 1e3);
  (* Engine boot and step, fair-scheduler step: a seeded walk. *)
  let prog, cap = subject_program subject in
  let batch = 50 in
  let start_ns =
    probe "engine.start" (reps 60) (fun () ->
        for _ = 1 to batch do
          Engine.stop (Engine.start prog)
        done)
    /. float_of_int batch
  in
  put "engine.start_us" (start_ns /. 1e3);
  let rng = Rng.make (Int64.of_int seed) in
  let walks, total_steps =
    let target = if quick then 20_000 else 300_000 in
    let rec go acc n = if n >= target then (acc, n) else
        let w = record_walk rng prog ~cap in
        go (w :: acc) (n + Array.length w)
    in
    go [] 0
  in
  let step_ns =
    span "engine.walk" (fun () ->
        List.fold_left
          (fun acc w ->
            let run = Engine.start prog in
            let t0 = now_ns () in
            Array.iter (fun s -> Engine.step run ~tid:s.w_tid ~alt:s.w_alt) w;
            let d = ns_between t0 (now_ns ()) in
            Engine.stop run;
            acc +. d)
          0. walks)
    /. float_of_int (max 1 total_steps)
  in
  put "engine.step_ns" step_ns;
  put "engine.walk_steps" (float_of_int total_steps);
  let nthreads0 = Engine.(let r = start prog in let n = nthreads r in stop r; n) in
  let fair_ns =
    span "fair_sched.replay" (fun () ->
        List.fold_left
          (fun acc w ->
            let fair = ref (Fair_sched.create ~nthreads:nthreads0 ()) in
            let t0 = now_ns () in
            Array.iter
              (fun s ->
                for _ = 1 to s.w_spawned do
                  fair := Fair_sched.add_thread !fair
                done;
                fair :=
                  Fair_sched.step !fair ~chosen:s.w_tid ~yielded:s.w_yielded
                    ~es_before:s.w_before ~es_after:s.w_after)
              w;
            acc +. ns_between t0 (now_ns ()))
          0. walks)
    /. float_of_int (max 1 total_steps)
  in
  put "fair_sched.step_ns" fair_ns;
  (* Parallel seams: frontier expansion, report codec, frame round trip. *)
  let pprog = S.compile ~backend:`Vm (D.Parser.parse_file peterson_file) in
  let items = ref 0 in
  put "par.expand_ms"
    (probe "search.expand" (reps 20) (fun () ->
         let its, _ = Search.expand cli_config pprog ~split_depth:cli_config.split_depth in
         items := List.length its)
     /. 1e6);
  put "par.items" (float_of_int !items);
  let item_report =
    let its, _ = Search.expand cli_config pprog ~split_depth:cli_config.split_depth in
    let prefix = List.nth its (List.length its / 2) in
    fst (Search.run_shard ~prefix { cli_config with metrics = true } pprog)
  in
  let codec () =
    let s = J.to_string (Worker.report_to_json item_report) in
    match J.of_string s with
    | Ok j -> ignore (Worker.report_of_json j)
    | Error e -> die "report codec: %s" e
  in
  put "par.report_codec_us" (probe "worker.report_codec" (reps 300) codec /. 1e3);
  put "par.frame_rtt_us"
    (frame_rtt_ns (Worker.report_to_json item_report) ~reps:(reps 300) /. 1e3);
  (* Checkpoint codec and durable write. *)
  let ck = Filename.concat dir "peterson.ckpt" in
  let ck2 = Filename.concat dir "peterson-copy.ckpt" in
  span "checkpoint.make" (fun () -> make_checkpoint ck);
  let loaded =
    match Checkpoint.load ck with Ok c -> c | Error e -> die "checkpoint load: %s" e
  in
  put "checkpoint.load_ms"
    (probe "checkpoint.load" (reps 30) (fun () -> Checkpoint.load ck) /. 1e6);
  put "checkpoint.save_ms"
    (probe "checkpoint.save" (reps 30) (fun () -> Checkpoint.save ck2 loaded) /. 1e6);
  put "checkpoint.bytes" (float_of_int (Unix.stat ck).Unix.st_size);
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ ck; ck2 ];
  emit [ ("subject", J.Str subject); ("layers", J.Obj (List.rev !out)); ("spans", spans_json ()) ]

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)

(* A fixed workload that uses none of the checker's code: allocation, a
   hash table, closures and short-lived lists, like a search. It runs in
   three parts and reports three times the median part, so one preempted
   part does not skew the calibration. *)
let calib_cmd _ =
  let part () =
    let t0 = now_ns () in
    let h = Hashtbl.create 1024 in
    let acc = ref 0 in
    for i = 1 to 70_000 do
      let l = List.init 8 (fun j -> (i * 31) + j) in
      acc := !acc + List.fold_left ( + ) 0 (List.rev_map (fun x -> x land 1023) l);
      Hashtbl.replace h (i land 65535) l
    done;
    ignore (Sys.opaque_identity !acc);
    secs_since t0
  in
  let parts = List.init 3 (fun _ -> part ()) in
  emit [ ("calib_s", J.Float (3. *. median parts)) ]

(* Run the calibration kernel in a fresh process (so the caller's heap
   does not slow it) and return its duration in seconds. *)
let calib_spawn () =
  flush stdout;
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "calib" |] in
  let line = input_line ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> die "calibration process failed");
  match J.of_string line with
  | Ok (J.Obj [ ("calib_s", J.Float f) ]) -> f
  | _ -> die "calibration: unexpected output %S" line

(* ------------------------------------------------------------------ *)
(* chessd-mix                                                          *)

(* Sub-second entries covering every verdict kind: (program, expected
   verdict key, needs the race detector). Ten take 50-400 ms; the two
   that finish in a few milliseconds and the resubmissions make up under a
   third of a round, so both the p50 and the p90 latency fall inside the
   spread of the heavier jobs (whose time tracks the host's speed), not at
   the gap below them, where small-job latency (fork, spool fsync) moves
   with disk and kernel load. *)
let catalogue =
  [ ("dining-3-ordered", "verified", false);
    ("examples/programs/bounded_buffer.chess", "verified", false);
    ("channel-bug1", "safety", false);
    ("wsq-2s-bug2", "safety", false);
    ("wsq-1s-bug3", "safety", false);
    ("dining-2-deadlock", "deadlock", false);
    ("promise-stale-cache", "livelock", false);
    ("examples/programs/stale_flag_livelock.chess", "livelock", false);
    ("dining-2-tryacquire", "good-samaritan", false);
    ("examples/programs/fig1_dining.chess", "good-samaritan", false);
    ("taskpool-1w-spin-shutdown", "good-samaritan", false);
    ("races-dcl", "race", true) ]

(* Resubmissions of an already-finished job per round (the dedup path). *)
let resubmits_per_round = 2

let spec_of ~program ~seed ~races =
  Serve.Jobspec.of_config ~program
    { cli_config with
      seed;
      metrics = true;
      analyses = (if races then [ Fairmc_analysis.Hb_race.analysis ] else []) }

let start_daemon ~chessd ~socket ~spool =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process chessd
      [| chessd; "--socket"; socket; "--spool"; spool; "--max-jobs"; "1"; "-q" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  pid

(* Connect once the socket accepts, completing the Hello handshake. *)
let connect_retry ~pid socket =
  let t0 = now_ns () in
  let rec go () =
    match Serve.Client.connect socket with
    | fd -> fd
    | exception Serve.Client.Error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> die "chessd exited during start-up");
      if secs_since t0 > 30. then die "chessd did not answer Hello within 30 s";
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

let shutdown_daemon fd pid =
  Serve.Client.request fd P.Shutdown;
  let rec drain () =
    match Serve.Client.next fd with
    | P.Bye -> ()
    | _ -> drain ()
    | exception Serve.Client.Error _ -> ()
  in
  drain ();
  Serve.Client.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "chessd did not exit cleanly"

(* Daemon start until Hello is answered, in seconds. *)
let daemon_setup ~chessd ~socket ~spool =
  let t0 = now_ns () in
  let pid = start_daemon ~chessd ~socket ~spool in
  let fd = connect_retry ~pid socket in
  (secs_since t0, pid, fd)

(* Report fields that carry wall-clock time; everything else in a served
   report is deterministic and must repeat exactly. *)
let wall_clock_key k =
  let has_prefix p = String.length k >= String.length p && String.sub k 0 (String.length p) = p in
  let has_suffix x =
    let lk = String.length k and lx = String.length x in
    lk >= lx && String.sub k (lk - lx) lx = x
  in
  has_suffix "_seconds" || has_suffix "_per_second" || has_prefix "time/"
  || has_prefix "span/"

let rec strip_wall_clock = function
  | J.Obj kvs ->
    J.Obj
      (List.filter_map
         (fun (k, v) -> if wall_clock_key k then None else Some (k, strip_wall_clock v))
         kvs)
  | J.Arr l -> J.Arr (List.map strip_wall_clock l)
  | v -> v

(* The number at [path] in a report, 0 if absent. *)
let json_number path j =
  let rec go j = function
    | [] -> (match j with J.Int i -> float_of_int i | J.Float f -> f | _ -> 0.)
    | k :: rest ->
      (match j with
       | J.Obj kvs -> (match List.assoc_opt k kvs with Some v -> go v rest | None -> 0.)
       | _ -> 0.)
  in
  go j path

let metric_counter report name = int_of_float (json_number [ "metrics"; name ] report)

type job_result = {
  jr_program : string;
  jr_resubmit : bool;
  jr_latency_s : float;
  jr_ok : bool;
  jr_executions : int;
  jr_transitions : int;
  jr_search_s : float;
  jr_events : int;
  jr_report : J.t;
}

(* Submit one job and watch it to completion. *)
let run_job fd ~spec ~program ~expected ~resubmit ~original =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let t0 = now_ns () in
  let job =
    span (if resubmit then "serve.resubmit" else "serve.job") @@ fun () ->
    let job =
      span "serve.ack" @@ fun () ->
      Serve.Client.request fd (P.Submit { spec; priority = 0 });
      match Serve.Client.next fd with
      | P.Submitted { job; deduped; _ } ->
        if deduped <> resubmit then
          fail "%s: deduped=%b on a %s submission" program deduped
            (if resubmit then "repeated" else "fresh");
        job
      | P.Error_msg e -> die "submit %s: %s" program e
      | _ -> die "submit %s: unexpected reply" program
    in
    Serve.Client.request fd (P.Watch { job; events = true });
    let events = ref 0 in
    let t_submitted = now_ns () in
    let t_last = ref t_submitted in
    let rec go () =
      match Serve.Client.next fd with
      | P.Watching _ -> go ()
      | P.Event _ ->
        let t = now_ns () in
        if !events = 0 then add_span "serve.start" t_submitted t;
        incr events;
        t_last := t;
        go ()
      | P.Job_done d ->
        if !events > 0 then add_span "serve.finish" !t_last (now_ns ());
        (d.verdict, d.report, !events)
      | P.Error_msg e -> die "job %s (%s): %s" job program e
      | _ -> die "job %s (%s): unexpected message" job program
    in
    go ()
  in
  let latency = secs_since t0 in
  let verdict, report, events = job in
  if verdict <> expected then
    fail "%s: verdict %s, expected %s" program verdict expected;
  (match original with
   | Some o when not (J.equal (strip_wall_clock o) (strip_wall_clock report)) ->
     fail "%s: resubmitted job's report differs from the original" program
   | _ -> ());
  let stats = match report with J.Obj kvs -> List.assoc_opt "stats" kvs | _ -> None in
  let stats = Option.value stats ~default:J.Null in
  ( { jr_program = program; jr_resubmit = resubmit; jr_latency_s = latency;
      jr_ok = !errors = [];
      jr_executions = int_of_float (json_number [ "executions" ] stats);
      jr_transitions = int_of_float (json_number [ "transitions" ] stats);
      jr_search_s = json_number [ "search_elapsed_seconds" ] stats; jr_events = events;
      jr_report = report },
    List.rev !errors )

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mix_cmd args =
  let rec parse ((chessd, dir, seed, rounds, setups) as acc) = function
    | "--chessd" :: v :: rest -> parse (v, dir, seed, rounds, setups) rest
    | "--dir" :: v :: rest -> parse (chessd, v, seed, rounds, setups) rest
    | "--seed" :: v :: rest -> parse (chessd, dir, int_of_string v, rounds, setups) rest
    | "--rounds" :: v :: rest -> parse (chessd, dir, seed, int_of_string v, setups) rest
    | "--setups" :: v :: rest -> parse (chessd, dir, seed, rounds, int_of_string v) rest
    | "--trace" :: rest ->
      tracing := true;
      parse acc rest
    | [] -> acc
    | a :: _ -> die "mix: unexpected argument %S" a
  in
  let chessd, dir, seed, max_rounds, setups = parse ("", ".", 1, 1, 5) args in
  if chessd = "" then die "mix: --chessd is required";
  (* Calibration before and after the set-ups and after every round. *)
  let calib = ref [ calib_spawn () ] in
  let rng = Rng.make (Int64.of_int seed) in
  (* Set-up samples: fresh daemons, each with its own socket and spool. *)
  let setup_samples =
    List.init setups (fun i ->
        let socket = Filename.concat dir (Printf.sprintf "setup%d.sock" i) in
        let spool = Filename.concat dir (Printf.sprintf "setup%d.spool" i) in
        let s, pid, fd = daemon_setup ~chessd ~socket ~spool in
        shutdown_daemon fd pid;
        s)
  in
  let socket = Filename.concat dir "mix.sock" in
  let spool = Filename.concat dir "mix.spool" in
  let s, pid, fd =
    span "serve.daemon_start" (fun () -> daemon_setup ~chessd ~socket ~spool)
  in
  let setup_samples = setup_samples @ [ s ] in
  calib := calib_spawn () :: !calib;
  let t_start = now_ns () in
  let results = ref [] in
  let errors = ref [] in
  let round_stats = ref [] in
  let cpu0 = Unix.times () in
  let entries = Array.of_list catalogue in
  let n = Array.length entries in
  let rounds = ref 0 in
  while !rounds < max_rounds do
    let r = !rounds in
    let t_round = now_ns () in
    (* A seeded order of the catalogue; resubmissions go to seeded slots
       after the first fresh job and repeat a job finished earlier in this
       round. *)
    let order = Array.init n Fun.id in
    shuffle rng order;
    let slots = Array.make (n + resubmits_per_round) (-1) in
    let resub = Array.init (n + resubmits_per_round - 1) (fun i -> i + 1) in
    shuffle rng resub;
    let is_resub = Array.make (n + resubmits_per_round) false in
    for k = 0 to resubmits_per_round - 1 do
      is_resub.(resub.(k)) <- true
    done;
    let next_fresh = ref 0 in
    Array.iteri
      (fun i _ ->
        if not is_resub.(i) then begin
          slots.(i) <- order.(!next_fresh);
          incr next_fresh
        end)
      slots;
    let finished = ref [] in
    let execs = ref 0 and trans = ref 0 and search_s = ref 0. in
    span "serve.round" (fun () ->
        Array.iteri
          (fun i e ->
            if is_resub.(i) then begin
              let done_ = Array.of_list (List.rev !finished) in
              let spec, program, expected, original = done_.(Rng.int rng (Array.length done_)) in
              let jr, errs =
                run_job fd ~spec ~program ~expected ~resubmit:true ~original:(Some original)
              in
              results := (r, jr) :: !results;
              errors := List.rev_append errs !errors
            end
            else begin
              let program, expected, races = entries.(e) in
              (* A distinct search seed per job keeps every fresh submission
                 a distinct job identity. *)
              let jseed = Int64.(add (mul (of_int seed) 1_000_003L) (of_int ((r * n) + e))) in
              let spec = spec_of ~program ~seed:jseed ~races in
              let jr, errs = run_job fd ~spec ~program ~expected ~resubmit:false ~original:None in
              results := (r, jr) :: !results;
              errors := List.rev_append errs !errors;
              execs := !execs + jr.jr_executions;
              trans := !trans + jr.jr_transitions;
              search_s := !search_s +. jr.jr_search_s;
              finished := (spec, program, expected, jr.jr_report) :: !finished
            end)
          slots);
    round_stats := (!execs, !trans, !search_s, secs_since t_round) :: !round_stats;
    calib := calib_spawn () :: !calib;
    incr rounds
  done;
  let elapsed = secs_since t_start in
  let cpu1 = Unix.times () in
  span "serve.shutdown" (fun () -> shutdown_daemon fd pid);
  let results = List.rev !results in
  let fresh = List.filter_map (fun (_, j) -> if j.jr_resubmit then None else Some j) results in
  let replay = List.fold_left (fun a j -> a + metric_counter j.jr_report "search/steps/replay") 0 fresh in
  let fresh_steps = List.fold_left (fun a j -> a + metric_counter j.jr_report "search/steps/fresh") 0 fresh in
  let edges =
    List.fold_left (fun a j -> a + metric_counter j.jr_report "sched/priority_edges_added") 0 fresh
  in
  let events = List.fold_left (fun a j -> a + j.jr_events) 0 fresh in
  let client_cpu = cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime in
  let fl x = J.Float x in
  emit
    [ ("setup_s", J.Arr (List.map fl setup_samples));
      ("calib_s", J.Arr (List.rev_map fl !calib));
      ("rounds", J.Int !rounds);
      ("elapsed_s", fl elapsed);
      ("client_cpu_s", fl client_cpu);
      ( "round_stats",
        J.Arr
          (List.rev_map
             (fun (e, t, s, w) ->
               J.Obj
                 [ ("executions", J.Int e); ("transitions", J.Int t);
                   ("search_s", fl s); ("wall_s", fl w) ])
             !round_stats) );
      ( "jobs",
        J.Arr
          (List.map
             (fun (r, j) ->
               J.Obj
                 [ ("round", J.Int r); ("program", J.Str j.jr_program);
                   ("resubmit", J.Bool j.jr_resubmit);
                   ("latency_s", fl j.jr_latency_s); ("ok", J.Bool j.jr_ok) ])
             results) );
      ("errors", J.Arr (List.rev_map (fun e -> J.Str e) !errors));
      ( "counters",
        J.Obj
          [ ("search/steps/replay", J.Int replay); ("search/steps/fresh", J.Int fresh_steps);
            ("sched/priority_edges_added", J.Int edges); ("event_lines", J.Int events);
            ("fresh_jobs", J.Int (List.length fresh)) ] );
      ("spans", spans_json ()) ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "calib" :: args -> calib_cmd args
  | "check" :: args -> check_cmd args
  | "budget" :: args -> budget_cmd args
  | "layers" :: args -> layers_cmd args
  | "mix" :: args -> mix_cmd args
  | _ -> die "usage: fmbench (check|budget|layers|mix) ..."
