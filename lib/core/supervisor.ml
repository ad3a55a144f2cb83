(* The parallel executor: a supervised pool of forked worker processes. See
   DESIGN.md, "Parallel search and supervision".

   Stateless model checking re-executes the program from its initial state
   for every schedule, so executions share no state and the schedule space
   shards into independent work items of two kinds:

   - Systematic modes (DFS, context-bounded): the parent expands the decision
     tree to [split_depth] ({!Search.expand}); every prefix it produces is one
     item, in DFS order, which a worker runs as the ordinary sequential
     search confined to the item's subtree. The expansion records nothing
     and every item re-executes from the initial state, so the merged
     statistics equal the sequential search's exactly; errors resolve by the
     lowest item index, so the counterexample is the one the sequential
     search finds, independent of [jobs] and of timing.

   - Sampling modes (random walk, random priorities): one item per shard,
     carrying its share of the sample budget and its own RNG stream split
     off the seed ({!Rng.streams}); every sampled path weighs
     [1/whole-budget]. The lowest erroring shard wins, so the verdict and
     counterexample are reproducible per (seed, jobs).

   Each worker is a forked process speaking length-prefixed JSON over a pipe
   pair ({!Worker}). That buys crash isolation — a worker that segfaults, is
   OOM-killed or wedges costs one attempt at one item, not the search:

   - a dead/hung/garbling worker is SIGKILLed and reaped; its item is
     requeued with exponential backoff, up to [config.max_retries] times;
   - an item that keeps killing workers is quarantined as a {!Report.Crash}
     verdict whose counterexample is the item's schedule prefix, so the
     crashing subtree can be re-entered deterministically;
   - a worker still running an item above the winning error index is killed
     and replaced: that item can no longer merge.

   [max_executions] is one {!Search.Budget} whose slots live in a page shared
   with the workers, so a budgeted run overshoots by at most one path per
   worker.

   Determinism of fault injection: a configured fault fires exactly once, on
   the *first* attempt of item [fault_seed mod n_items]. Retries are
   fault-free, so every injected fault (with retries left) leaves the final
   report unchanged — the property the fault-matrix tests pin down. *)

module C = Search_config
module J = Fairmc_util.Json
module Rng = Fairmc_util.Rng
module Retry = Fairmc_util.Retry
module AH = Analysis_hook
module Budget = Search.Budget
module M = Fairmc_obs.Metrics
module Clock = Fairmc_obs.Clock
module Progress = Fairmc_obs.Progress
module Events = Fairmc_obs.Events
module Estimator = Fairmc_obs.Estimator

let resolve n =
  if n = 1 then 1 else if n <= 0 then Domain.recommended_domain_count () else n

let pool_size (cfg : C.t) = max (resolve cfg.C.jobs) (resolve cfg.C.workers)

(* A real probe, not a platform guess: fork once and reap. OCaml 5 forbids
   fork for the rest of the process lifetime once a second domain has ever
   been created (Failure, not Unix_error), so an embedder that spawned
   domains learns here that the pool cannot start. *)
let can_fork () =
  (not Sys.win32)
  && begin
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
      (try ignore (Retry.eintr (fun () -> Unix.waitpid [] pid))
       with Unix.Unix_error _ -> ());
      true
    | exception (Unix.Unix_error _ | Failure _) -> false
  end

let post_event (cfg : C.t) kind fields =
  match cfg.C.events with
  | None -> ()
  | Some s -> Events.post s ~shard:(-1) ~kind (J.Obj fields)

let us_since t0 = int_of_float ((Clock.now () -. t0) *. 1e6)

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

(* One item's result: its report and its coverage table. *)
type part = Report.t * (int64, unit) Hashtbl.t

let zero_stats =
  { Report.executions = 0;
    transitions = 0;
    states = 0;
    nonterminating = 0;
    depth_bound_hits = 0;
    sleep_set_prunes = 0;
    yields = 0;
    max_depth = 0;
    elapsed = 0.;
    first_error_execution = None;
    first_error_time = None;
    sync_ops_per_exec = 0;
    max_threads = 0;
    search_elapsed = 0.;
    probe_mass = 0 }

let states_tbl l =
  let tbl = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun s -> Hashtbl.replace tbl s ()) l;
  tbl

let sorted_states tbl =
  List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* Analysis results merge like coverage: the lock-order graph is a set, so
   part edge lists are unioned (dedup + canonical sort) and the cycles are
   recomputed from the union — identical for every shard layout. *)
let merge_analysis (parts : part list) =
  match List.filter_map (fun ((r : Report.t), _) -> r.Report.analysis) parts with
  | [] -> None
  | anas ->
    let edges =
      AH.dedup_edges
        (List.concat_map (fun (a : Report.analysis) -> a.Report.lock_order_edges) anas)
    in
    Some { Report.lock_order_edges = edges; potential_deadlock_cycles = AH.cycles edges }

(* Sum counters, max the maxima, union the coverage tables (returned too),
   merge the metrics snapshots (counters add, gauges max — see Metrics), and
   union the analysis results. Wall times are the caller's. *)
let merge_parts (parts : part list) =
  let tbl = Hashtbl.create 4096 in
  let stats, metrics =
    List.fold_left
      (fun (acc, ms) ((r : Report.t), part_tbl) ->
        let s = r.Report.stats in
        Hashtbl.iter (fun k () -> Hashtbl.replace tbl k ()) part_tbl;
        ( { acc with
            Report.executions = acc.Report.executions + s.executions;
            transitions = acc.transitions + s.transitions;
            nonterminating = acc.nonterminating + s.nonterminating;
            depth_bound_hits = acc.depth_bound_hits + s.depth_bound_hits;
            sleep_set_prunes = acc.sleep_set_prunes + s.sleep_set_prunes;
            yields = acc.yields + s.yields;
            max_depth = max acc.max_depth s.max_depth;
            sync_ops_per_exec = max acc.sync_ops_per_exec s.sync_ops_per_exec;
            max_threads = max acc.max_threads s.max_threads;
            probe_mass = acc.probe_mass + s.probe_mass },
          M.Snapshot.merge ms r.Report.metrics ))
      (zero_stats, M.Snapshot.empty) parts
  in
  let analysis = merge_analysis parts in
  ( { stats with Report.states = Hashtbl.length tbl },
    Report.fix_lockgraph_counters metrics analysis,
    analysis,
    tbl )

(* The final report, and the coverage union it counts. [winner] is the
   lowest erroring item index ([max_int] when none): its verdict wins,
   items below it merge in, items above it are discarded — the part of the
   space the sequential search explores before it stops inside [winner].
   With no winner, a missing or [Limits_reached] item, or a timed-out
   expansion, downgrades Verified to Limits_reached. [prior] is a resumed
   sampling session's totals. *)
let finalize ~(results : part option array) ~prior ~winner ~expand_timed_out =
  let n = Array.length results in
  if winner < n then begin
    let before =
      Option.to_list prior
      @ List.filter_map Fun.id (Array.to_list (Array.sub results 0 winner))
    in
    let ((win_r, _) as win) = Option.get results.(winner) in
    let stats, metrics, analysis, tbl = merge_parts (before @ [ win ]) in
    let prior_execs =
      List.fold_left
        (fun acc ((r : Report.t), _) -> acc + r.Report.stats.executions)
        0 before
    in
    let ws = win_r.Report.stats in
    ( { Report.verdict = win_r.Report.verdict;
        stats =
          { stats with
            first_error_execution =
              Option.map (fun e -> prior_execs + e) ws.Report.first_error_execution;
            first_error_time = ws.Report.first_error_time };
        metrics;
        analysis },
      tbl )
  end
  else begin
    let done_ = List.filter_map Fun.id (Array.to_list results) in
    let stats, metrics, analysis, tbl = merge_parts (Option.to_list prior @ done_) in
    let limited =
      expand_timed_out
      || n > List.length done_
      || List.exists
           (fun ((r : Report.t), _) -> r.Report.verdict = Report.Limits_reached)
           (Option.to_list prior @ done_)
    in
    ( { Report.verdict = (if limited then Report.Limits_reached else Report.Verified);
        stats;
        metrics;
        analysis },
      tbl )
  end

(* ------------------------------------------------------------------ *)
(* Work plans                                                          *)
(* ------------------------------------------------------------------ *)

(* A work item: a locked schedule prefix (systematic) or a share of the
   sample budget (sampling). *)
type item = Prefix of Search.pdecision array | Samples of int

(* Durable-session hooks (see DESIGN.md, "Durable sessions"): [note] sees
   every result as it arrives, [flush] the final report and its coverage
   union once the workers are gone. *)
type recorder = {
  note : int -> part -> unit;
  flush : Report.t -> (int64, unit) Hashtbl.t -> unit;
}

type plan = {
  items : item array;
  streams : Rng.t array;
      (* per item, not per worker, so results never depend on which worker
         ran which item (random tails of unfair depth-bounded search draw
         from these too) *)
  probe_denom : int;  (* sampling: the whole sample budget; 0 otherwise *)
  results : part option array;  (* prefilled with a resumed session's items *)
  prior : part option;  (* a resumed sampling session's totals *)
  prior_elapsed : float;
  split_depth : int;  (* 0 for sampling *)
  expand_us : int;
  expand_timed_out : bool;
  recorder : recorder option;
}

(* A failed save warns and keeps the previous checkpoint. *)
let save_checkpoint (cfg : C.t) ~(prog : Program.t) path payload =
  let fingerprint = Checkpoint.fingerprint cfg ~program:prog.Program.name in
  match Checkpoint.save_result path { Checkpoint.fingerprint; payload } with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf
      "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!" msg;
    post_event cfg "checkpoint_error" [ ("file", J.Str path); ("error", J.Str msg) ]

(* Systematic: the work-item list is defined by (program, config,
   split_depth), so a resume's re-expansion must agree with the checkpoint;
   its fully explored (Verified) items are installed as if a worker had
   just finished them. *)
let resume_items (cfg : C.t) ~n (pa : Checkpoint.par_state) results =
  let drift what ck now =
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf "%s drifted: checkpoint has %d, expansion gives %d" what ck now))
  in
  if pa.Checkpoint.pa_split_depth <> cfg.split_depth then
    drift "split depth" pa.Checkpoint.pa_split_depth cfg.split_depth;
  if pa.Checkpoint.pa_n_items <> n then drift "work-item count" pa.Checkpoint.pa_n_items n;
  List.iter
    (fun (it : Checkpoint.par_item) ->
      if it.Checkpoint.pi_index < 0 || it.Checkpoint.pi_index >= n then
        raise (Checkpoint.Mismatch "checkpoint work-item index out of range");
      let analysis =
        if cfg.C.analyses = [] then None
        else
          Some
            { Report.lock_order_edges = it.Checkpoint.pi_edges;
              (* Recomputed from the edge union at merge time. *)
              potential_deadlock_cycles = [] }
      in
      results.(it.Checkpoint.pi_index) <-
        Some
          ( { Report.verdict = Report.Verified;
              stats = it.Checkpoint.pi_stats;
              metrics = it.Checkpoint.pi_metrics;
              analysis },
            states_tbl it.Checkpoint.pi_states ))
    pa.Checkpoint.pa_items

(* Systematic checkpoints record every fully explored item, throttled by
   [checkpoint_interval], plus once when the run stops. Disabled when the
   expansion timed out: the item list is then partial and its indices would
   not survive a resume's re-expansion. *)
let systematic_recorder (cfg : C.t) ~prog ~n ~t0 ~prior_elapsed ~resume ~expand_timed_out =
  match cfg.C.checkpoint with
  | Some path when not expand_timed_out ->
    let items =
      ref (match resume with Some (pa : Checkpoint.par_state) -> pa.pa_items | None -> [])
    in
    let last = ref (Clock.now ()) in
    let write ~complete =
      last := Clock.now ();
      save_checkpoint cfg ~prog path
        (Checkpoint.Par
           { Checkpoint.pa_split_depth = cfg.C.split_depth;
             pa_n_items = n;
             pa_elapsed = prior_elapsed +. (Clock.now () -. t0);
             pa_items =
               List.sort
                 (fun (a : Checkpoint.par_item) b -> compare a.pi_index b.pi_index)
                 !items;
             pa_complete = complete })
    in
    let note k ((r : Report.t), tbl) =
      if r.Report.verdict = Report.Verified then begin
        items :=
          { Checkpoint.pi_index = k;
            pi_stats = r.Report.stats;
            pi_metrics = r.Report.metrics;
            pi_states = (if cfg.C.coverage then sorted_states tbl else []);
            pi_edges =
              (match r.Report.analysis with
               | Some a -> a.Report.lock_order_edges
               | None -> []) }
          :: !items;
        if Clock.now () -. !last >= cfg.C.checkpoint_interval then write ~complete:false
      end
    in
    let flush (r : Report.t) _ =
      write ~complete:(r.Report.verdict <> Report.Limits_reached)
    in
    Some { note; flush }
  | _ -> None

let systematic_plan ?resume (cfg : C.t) prog ~t0 ~deadline =
  let prefixes, expand_timed_out =
    Search.expand ~deadline cfg prog ~split_depth:cfg.C.split_depth
  in
  let expand_us = us_since t0 in
  let n = List.length prefixes in
  let results = Array.make n None in
  Option.iter (fun pa -> resume_items cfg ~n pa results) resume;
  let prior_elapsed =
    match resume with Some (pa : Checkpoint.par_state) -> pa.pa_elapsed | None -> 0.
  in
  { items = Array.of_list (List.map (fun p -> Prefix p) prefixes);
    streams = Rng.streams (Rng.make cfg.C.seed) n;
    probe_denom = 0;
    results;
    prior = None;
    prior_elapsed;
    split_depth = cfg.C.split_depth;
    expand_us;
    expand_timed_out;
    recorder =
      systematic_recorder cfg ~prog ~n ~t0 ~prior_elapsed ~resume ~expand_timed_out }

(* Sampling: the remaining budget splits [n/jobs (+1 for the first n mod
   jobs shards)]. Each session (round) advances the base generator before
   splitting the shard streams, so no schedule prefix repeats across
   sessions; the aggregate is checkpointed once, when the round ends, and a
   resume continues by remaining budget. When prior sessions spent the
   whole budget their totals are the answer (extend the budget to sample
   more). *)
let sampling_plan ?resume (cfg : C.t) prog ~jobs =
  let budget =
    match cfg.C.mode with
    | C.Random_walk n | C.Priority_random n -> n
    | C.Round_robin | C.Dfs | C.Context_bounded _ -> invalid_arg "Supervisor: not sampling"
  in
  let round, prior, prior_execs, prior_elapsed =
    match resume with
    | None -> (0, None, 0, 0.)
    | Some (sa : Checkpoint.sampling_state) ->
      let analysis =
        if cfg.C.analyses = [] then None
        else
          Some
            { Report.lock_order_edges = sa.sa_edges;
              potential_deadlock_cycles = AH.cycles sa.sa_edges }
      in
      ( sa.sa_round,
        Some
          ( { Report.verdict = Report.Limits_reached;
              stats = sa.sa_stats;
              metrics = sa.sa_metrics;
              analysis },
            states_tbl sa.sa_states ),
        sa.sa_stats.Report.executions,
        sa.sa_stats.Report.elapsed )
  in
  let left = budget - prior_execs in
  if left <= 0 then
    Error
      (match prior with
       | Some (r, _) -> r
       | None ->
         { Report.verdict = Report.Limits_reached;
           stats = zero_stats;
           metrics = M.Snapshot.empty;
           analysis = None })
  else begin
    let shards = max 1 (min jobs left) in
    let base = Rng.make cfg.C.seed in
    for _ = 1 to round do
      ignore (Rng.split base)
    done;
    let recorder =
      Option.map
        (fun path ->
          let flush (r : Report.t) tbl =
            save_checkpoint cfg ~prog path
              (Checkpoint.Par_sampling
                 { Checkpoint.sa_round = round + 1;
                   sa_stats = r.Report.stats;
                   sa_metrics = r.Report.metrics;
                   sa_states = sorted_states tbl;
                   sa_edges =
                     (match r.Report.analysis with
                      | Some a -> a.Report.lock_order_edges
                      | None -> []);
                   sa_complete = Report.found_error r })
          in
          { note = (fun _ _ -> ()); flush })
        cfg.C.checkpoint
    in
    Ok
      { items =
          Array.init shards (fun i ->
              Samples ((left / shards) + if i < left mod shards then 1 else 0));
        streams = Rng.streams base shards;
        probe_denom = budget;
        results = Array.make shards None;
        prior;
        prior_elapsed;
        split_depth = 0;
        expand_us = 0;
        expand_timed_out = false;
        recorder }
  end

(* Run item [index] in this process, counting its paths in budget slot
   [slot]. *)
let run_item ?progress (cfg : C.t) prog plan ~budget ~slot ~deadline index =
  let rng = Rng.copy plan.streams.(index) in
  let budget = Option.map (fun b -> Budget.slot b slot) budget in
  match plan.items.(index) with
  | Prefix prefix ->
    Search.run_shard ~deadline ~rng ~prefix ?budget ~shard:slot ?progress cfg prog
  | Samples n ->
    let mode =
      match cfg.C.mode with
      | C.Random_walk _ -> C.Random_walk n
      | C.Priority_random _ -> C.Priority_random n
      | m -> m
    in
    Search.run_shard ~deadline ~rng ?budget ~probe_denom:plan.probe_denom ~shard:slot
      ?progress { cfg with C.mode } prog

(* ------------------------------------------------------------------ *)
(* Child side                                                          *)
(* ------------------------------------------------------------------ *)

let fault_fires (cfg : C.t) ~index ~attempt ~n =
  match cfg.C.inject_fault with
  | Some f when attempt = 0 && n > 0 && index = f.C.fault_seed mod n -> Some f.C.fault_kind
  | _ -> None

(* One work-item attempt inside the worker process. The child's config
   drops everything that belongs to the parent: no checkpoint file (it must
   never clobber the parent's), no progress emission, no fault re-injection,
   and no inherited event stream — when the parent collects telemetry the
   child records its events privately and ships them back in the response.
   The per-item wall-clock timeout is parent-side only; the child's deadline
   comes from the remaining *global* time budget, so a slow but healthy item
   never comes back [Limits_reached]. *)
let child_response (cfg : C.t) prog plan ~budget ~slot ~index ~attempt ~time_left =
  let child_events =
    match cfg.C.events with None -> None | Some _ -> Some (Events.create ~collect:true ())
  in
  let cfg_i =
    { cfg with
      C.jobs = 1;
      workers = 1;
      checkpoint = None;
      progress = false;
      on_progress = None;
      time_limit = None;
      inject_fault = None;
      events = child_events }
  in
  let deadline = match time_left with None -> infinity | Some t -> Clock.now () +. t in
  let r, tbl = run_item cfg_i prog plan ~budget ~slot ~deadline index in
  let events =
    match child_events with
    | None -> []
    | Some s ->
      List.map
        (fun (e : Events.event) -> (e.Events.det, e.Events.kind, e.Events.data))
        (Events.collected s)
  in
  { Worker.r_index = index;
    r_attempt = attempt;
    r_report = r;
    r_states = (if cfg.C.coverage then sorted_states tbl else []);
    r_events = events }

(* The worker process's request loop. Never returns: every path ends in
   [Unix._exit] (not [exit] — the child must not run the parent's inherited
   [at_exit] callbacks or re-flush its channels). Exit codes: 0 clean quit,
   2 protocol error, 3 fault-injection backstop. *)
let child_serve (cfg : C.t) prog plan ~budget ~slot ~req ~resp =
  (* Ctrl-C teardown belongs to the parent: it decides between graceful
     quit and SIGKILL. The child must not race it with its own handler. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Checkpoint.clear_interrupt ();
  let n = Array.length plan.items in
  let rec loop () =
    match Worker.recv req with
    | Ok None -> Unix._exit 0 (* parent closed the request pipe *)
    | Error _ -> Unix._exit 2
    | Ok (Some json) ->
      (match Worker.request_of_json json with
       | exception Checkpoint.Codec.Parse _ -> Unix._exit 2
       | Worker.Quit -> Unix._exit 0
       | Worker.Run { q_index; q_attempt; q_time_left } ->
         let fault = fault_fires cfg ~index:q_index ~attempt:q_attempt ~n in
         (match fault with
          | Some C.Crash ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            Unix._exit 3
          | Some C.Hang ->
            (* Spin until the parent's item timeout SIGKILLs us. *)
            let rec spin () = Retry.sleepf 3600.; spin () in
            spin ()
          | Some C.Garble ->
            let junk = Bytes.of_string "!!not-a-frame!!" in
            (try
               ignore (Retry.eintr (fun () -> Unix.write resp junk 0 (Bytes.length junk)))
             with Unix.Unix_error _ -> ());
            Unix._exit 3
          | Some (C.Slow_pipe | C.Save_fail) | None ->
            let json =
              Worker.response_to_json
                (child_response cfg prog plan ~budget ~slot ~index:q_index
                   ~attempt:q_attempt ~time_left:q_time_left)
            in
            (match fault with
             | Some C.Slow_pipe -> Worker.send_slowly resp json
             | _ -> Worker.send resp json);
            loop ()))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_spawns : int;
  mutable c_restarts : int;
  mutable c_timeouts : int;
  mutable c_retries : int;
  mutable c_crashes : int;
  mutable c_quarantined : int;
}

(* One worker process as the parent sees it. [s_item = -1] means idle;
   [s_alive = false] marks a slot whose process is gone and whose fds are
   closed (the fd fields then hold harmless placeholders and must not be
   used — every access is guarded by [s_alive]). [s_base] is the worker's
   budget slot when its item was dispatched, restored if the attempt dies. *)
type slot = {
  s_id : int;
  mutable s_pid : int;
  mutable s_req : Unix.file_descr;  (* parent writes requests here *)
  mutable s_resp : Unix.file_descr;  (* parent reads responses here *)
  mutable s_buf : Worker.inbuf;
  mutable s_item : int;
  mutable s_attempt : int;
  mutable s_deadline : float;
  mutable s_base : int;
  mutable s_alive : bool;
}

(* Exponential backoff with deterministic jitter: the delay is a pure
   function of (seed, item, attempt), so a retried run is replayable. *)
let backoff_delay (cfg : C.t) ~index ~attempt =
  let key =
    Int64.add (Int64.mul cfg.C.seed 1_000_003L) (Int64.of_int ((index * 97) + attempt))
  in
  let jitter = float_of_int (Rng.int (Rng.of_state key) 1024) /. 1024. in
  let exp = float_of_int (1 lsl min attempt 5) in
  Float.min 2.0 (0.05 *. exp *. (1. +. (0.5 *. jitter)))

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let status_reason = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let run_pool (cfg : C.t) prog plan ~jobs ~t0 ~deadline =
  let results = plan.results in
  let n = Array.length plan.items in
  let workers = max 1 (min jobs n) in
  if plan.expand_us > 0 then
    post_event cfg "span" [ ("phase", J.Str "expand"); ("dur_us", J.Int plan.expand_us) ];
  post_event cfg "supervisor_start"
    [ ("workers", J.Int workers);
      ("items", J.Int n);
      ("split_depth", J.Int plan.split_depth);
      ("expand_us", J.Int plan.expand_us);
      ("max_retries", J.Int cfg.C.max_retries);
      ("item_timeout", match cfg.C.item_timeout with Some t -> J.Float t | None -> J.Null);
      ("fault",
       match cfg.C.inject_fault with Some f -> J.Str (C.fault_name f) | None -> J.Null) ];
  let progress = Search.progress_of_cfg cfg in
  (* Search-wide totals for progress samples: a resumed session's work plus
     every result as it arrives. *)
  let done_execs = ref 0 and done_mass = ref 0 in
  let count_done ((r : Report.t), _) =
    done_execs := !done_execs + r.Report.stats.executions;
    done_mass := !done_mass + r.Report.stats.probe_mass
  in
  Option.iter count_done plan.prior;
  Array.iter (Option.iter count_done) results;
  let sample () =
    let mass = !done_mass and executions = !done_execs in
    let elapsed = plan.prior_elapsed +. (Clock.now () -. t0) in
    { Progress.executions;
      elapsed;
      jobs = workers;
      phase = "search";
      completion = (if mass > 0 then Some (Estimator.completion ~mass) else None);
      est_total = Estimator.est_total ~mass ~executions;
      eta = Estimator.eta ~mass ~elapsed }
  in
  (* Slot [i] belongs to worker [i], slot [workers] to this process (the
     resumed session's executions, and the in-process fallback). Mapped
     before any fork so every worker shares it. *)
  let budget =
    Option.map
      (fun m ->
        let b = Budget.create ~shared:true ~slots:(workers + 1) m in
        Budget.add (Budget.slot b workers) !done_execs;
        b)
      cfg.C.max_executions
  in
  let budget_spent () = match budget with Some b -> Budget.spent b | None -> false in
  (* The savefail fault is parent-side: the first two checkpoint save
     attempts fail transiently, exercising Checkpoint's retry path. Armed
     only when a checkpoint is actually being written — the counter is
     global and must not leak into a later run's saves. *)
  (match (cfg.C.inject_fault, plan.recorder) with
   | Some { C.fault_kind = C.Save_fail; _ }, Some _ -> Checkpoint.inject_save_failures := 2
   | _ -> ());
  let item_timeout =
    match (cfg.C.item_timeout, cfg.C.inject_fault) with
    (* A hang with no timeout configured would stall forever; give the
       injection harness a finite default. *)
    | None, Some { C.fault_kind = C.Hang; _ } -> Some 10.0
    | t, _ -> t
  in
  let counters =
    { c_spawns = 0; c_restarts = 0; c_timeouts = 0; c_retries = 0; c_crashes = 0;
      c_quarantined = 0 }
  in
  let winner = ref max_int in
  let stopped = ref false in
  let inflight = ref 0 in
  let pending = Queue.create () in
  for k = 0 to n - 1 do
    if results.(k) = None then Queue.push k pending
  done;
  (* Retry heap as a sorted assoc list (ready_at, index, attempt) — retry
     volume is bounded by [n * max_retries], tiny next to item runtimes. *)
  let retries = ref [] in
  let live index = index < !winner && results.(index) = None in
  let record index part =
    results.(index) <- Some part;
    Option.iter (fun r -> r.note index part) plan.recorder;
    count_done part;
    if Report.found_error (fst part) && index < !winner then winner := index
  in
  (* Workers can die mid-write; the parent must get EPIPE from its request
     writes, not be killed. Restored on every way out — a long-running host
     (chessd supervises many jobs per process lifetime) must not have
     [Signal_ignore] leak into it when supervision raises mid-flight. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_sigpipe) @@ fun () ->
  (* All parent-side pipe ends, so each newly forked child can close its
     inherited copies of the *other* slots' fds. Without this, a respawned
     worker would hold the old workers' request pipes open and EOF-based
     teardown would deadlock on it. *)
  let parent_ends = ref [] in
  let spawn_slot id =
    let req_r, req_w = Unix.pipe ~cloexec:false () in
    let resp_r, resp_w = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !parent_ends;
      Unix.close req_w;
      Unix.close resp_r;
      (* An exception escaping the child must end it, never unwind into a
         copy of this loop. *)
      (try child_serve cfg prog plan ~budget ~slot:id ~req:req_r ~resp:resp_w
       with _ -> Unix._exit 2)
    | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      parent_ends := req_w :: resp_r :: !parent_ends;
      counters.c_spawns <- counters.c_spawns + 1;
      post_event cfg "worker_spawn" [ ("worker", J.Int id); ("pid", J.Int pid) ];
      { s_id = id; s_pid = pid; s_req = req_w; s_resp = resp_r;
        s_buf = Worker.inbuf (); s_item = -1; s_attempt = 0; s_deadline = infinity;
        s_base = 0; s_alive = true }
  in
  let dead_slot id =
    { s_id = id; s_pid = -1; s_req = Unix.stdin; s_resp = Unix.stdin;
      s_buf = Worker.inbuf (); s_item = -1; s_attempt = 0; s_deadline = infinity;
      s_base = 0; s_alive = false }
  in
  let forget_ends slot =
    parent_ends :=
      List.filter (fun fd -> fd <> slot.s_req && fd <> slot.s_resp) !parent_ends
  in
  (* Tear one worker down hard: SIGKILL, reap, close, mark dead, and take
     its unfinished attempt's paths back out of the budget. Returns the
     exit-status description for the requeue reason. *)
  let kill_slot slot =
    (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
    let status =
      match Retry.eintr (fun () -> Unix.waitpid [] slot.s_pid) with
      | _, st -> status_reason st
      | exception Unix.Unix_error _ -> "already reaped"
    in
    forget_ends slot;
    (try Unix.close slot.s_req with Unix.Unix_error _ -> ());
    (try Unix.close slot.s_resp with Unix.Unix_error _ -> ());
    slot.s_alive <- false;
    (match budget with
     | Some b when slot.s_item >= 0 ->
       let mine = Budget.slot b slot.s_id in
       Budget.add mine (slot.s_base - Budget.count mine)
     | _ -> ());
    post_event cfg "worker_exit"
      [ ("worker", J.Int slot.s_id); ("pid", J.Int slot.s_pid); ("status", J.Str status) ];
    status
  in
  let respawn slot =
    counters.c_restarts <- counters.c_restarts + 1;
    match spawn_slot slot.s_id with
    | fresh ->
      slot.s_pid <- fresh.s_pid;
      slot.s_req <- fresh.s_req;
      slot.s_resp <- fresh.s_resp;
      slot.s_buf <- fresh.s_buf;
      slot.s_item <- -1;
      slot.s_attempt <- 0;
      slot.s_deadline <- infinity;
      slot.s_alive <- true
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "fairmc: worker %d respawn failed: %s\n%!" slot.s_id
        (Unix.error_message e);
      post_event cfg "worker_spawn_failed"
        [ ("worker", J.Int slot.s_id); ("error", J.Str (Unix.error_message e)) ]
  in
  let quarantine index ~attempts ~reason =
    counters.c_quarantined <- counters.c_quarantined + 1;
    let decisions =
      match plan.items.(index) with
      | Prefix p ->
        Array.to_list p
        |> List.map (fun (d : Search.pdecision) -> (d.Search.p_tid, d.Search.p_alt))
      | Samples _ -> []
    in
    let rendered =
      Printf.sprintf
        "work item %d quarantined after %d attempt(s): %s\n\
         schedule prefix (tid alt): %s"
        index attempts reason
        (String.concat " " (List.map (fun (t, a) -> Printf.sprintf "%d:%d" t a) decisions))
    in
    let cex = { Report.rendered; decisions; length = List.length decisions } in
    record index
      ( { Report.verdict = Report.Crash { reason; cex };
          stats = zero_stats;
          metrics = M.Snapshot.empty;
          analysis = None },
        Hashtbl.create 1 );
    post_event cfg "item_quarantined"
      [ ("item", J.Int index); ("attempts", J.Int attempts); ("reason", J.Str reason) ]
  in
  let requeue index attempt ~reason =
    if attempt >= cfg.C.max_retries then quarantine index ~attempts:(attempt + 1) ~reason
    else begin
      counters.c_retries <- counters.c_retries + 1;
      let delay = backoff_delay cfg ~index ~attempt in
      post_event cfg "item_retry"
        [ ("item", J.Int index); ("attempt", J.Int (attempt + 1));
          ("delay_s", J.Float delay); ("reason", J.Str reason) ];
      retries :=
        List.merge
          (fun (a, _, _) (b, _, _) -> compare a b)
          [ (Clock.now () +. delay, index, attempt + 1) ]
          !retries
    end
  in
  (* A worker died (crash, EOF, protocol violation, timeout): reap it,
     requeue its in-flight item, bring a fresh process up in its slot. *)
  let worker_died slot ~reason =
    counters.c_crashes <- counters.c_crashes + 1;
    let index = slot.s_item and attempt = slot.s_attempt in
    let status = kill_slot slot in
    if index >= 0 then begin
      decr inflight;
      if live index then
        requeue index attempt ~reason:(Printf.sprintf "%s (%s)" reason status)
    end;
    if not !stopped then respawn slot
  in
  (* A worker running a now-useless item (above the winning error index) is
     killed and replaced. No retry — the item will never merge. *)
  let cancel_slot slot =
    ignore (kill_slot slot);
    decr inflight;
    if not !stopped then respawn slot
  in
  let dispatch slot index attempt =
    slot.s_item <- index;
    slot.s_attempt <- attempt;
    slot.s_deadline <-
      (match item_timeout with None -> infinity | Some t -> Clock.now () +. t);
    slot.s_base <-
      (match budget with Some b -> Budget.count (Budget.slot b slot.s_id) | None -> 0);
    incr inflight;
    let time_left =
      match cfg.C.time_limit with
      | None -> None
      | Some _ -> Some (Float.max 0. (deadline -. Clock.now ()))
    in
    match
      Worker.send slot.s_req
        (Worker.request_to_json
           (Worker.Run { q_index = index; q_attempt = attempt; q_time_left = time_left }))
    with
    | () -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      worker_died slot ~reason:"request write failed"
  in
  let rec next_work now =
    match !retries with
    | (ready, index, attempt) :: rest when ready <= now ->
      retries := rest;
      if live index then Some (index, attempt) else next_work now
    | _ ->
      if Queue.is_empty pending then None
      else begin
        let index = Queue.pop pending in
        if live index then Some (index, 0) else next_work now
      end
  in
  let work_remaining () =
    List.exists (fun (_, i, _) -> live i) !retries
    || Queue.fold (fun acc i -> acc || live i) false pending
  in
  let handle_result slot (resp : Worker.response) =
    let index = resp.Worker.r_index in
    slot.s_item <- -1;
    slot.s_attempt <- 0;
    slot.s_deadline <- infinity;
    decr inflight;
    (* Re-post the child's telemetry on the parent stream under the slot's
       shard id. Per-path span events are gated on a collecting stream
       in-process; apply the same gate here so a plain streaming sink sees
       the same event set either way. *)
    (match cfg.C.events with
     | None -> ()
     | Some s ->
       List.iter
         (fun (det, kind, data) ->
           if det || kind <> "span" || Events.collecting s then
             Events.post s ~shard:slot.s_id ~det ~kind data)
         resp.Worker.r_events);
    if live index then begin
      record index (resp.Worker.r_report, states_tbl resp.Worker.r_states);
      Option.iter (fun p -> Progress.tick p sample) progress
    end
  in
  (* Last-resort degradation: every worker slot is dead and cannot be
     respawned. Finish the remaining items in-process — same items, same
     streams, same merge — rather than abandoning the search. *)
  let run_inline () =
    Printf.eprintf "fairmc: no live worker processes; finishing the search in-process\n%!";
    post_event cfg "supervisor_fallback" [ ("reason", J.Str "no live workers") ];
    let k = ref 0 in
    while
      !k < n && (not (Checkpoint.interrupted ())) && Clock.now () < deadline
      && not (budget_spent ())
    do
      if live !k then
        record !k (run_item ?progress cfg prog plan ~budget ~slot:workers ~deadline !k);
      incr k
    done;
    if Checkpoint.interrupted () then stopped := true
  in
  let slots =
    Array.init workers (fun i ->
        match spawn_slot i with
        | s -> s
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "fairmc: worker %d spawn failed: %s\n%!" i (Unix.error_message e);
          post_event cfg "worker_spawn_failed"
            [ ("worker", J.Int i); ("error", J.Str (Unix.error_message e)) ];
          dead_slot i)
  in
  let rec loop () =
    if Checkpoint.interrupted () then stopped := true;
    if not !stopped then begin
      (* Items above the winning error index will never merge; reclaim
         their workers. *)
      Array.iter (fun s -> if s.s_alive && s.s_item > !winner then cancel_slot s) slots;
      let now = Clock.now () in
      if now < deadline && not (budget_spent ()) then
        Array.iter
          (fun s ->
            if s.s_alive && s.s_item < 0 then
              match next_work now with
              | Some (index, attempt) -> dispatch s index attempt
              | None -> ())
          slots;
      let now = Clock.now () in
      let finished =
        !inflight = 0 && ((not (work_remaining ())) || now >= deadline || budget_spent ())
      in
      if not finished then begin
        if not (Array.exists (fun s -> s.s_alive) slots) then run_inline ()
        else begin
          let fds =
            Array.fold_left
              (fun acc s -> if s.s_alive && s.s_item >= 0 then s.s_resp :: acc else acc)
              [] slots
          in
          let timeout =
            let next_deadline =
              Array.fold_left
                (fun acc s ->
                  if s.s_alive && s.s_item >= 0 then Float.min acc s.s_deadline else acc)
                infinity slots
            in
            let next_retry = match !retries with (t, _, _) :: _ -> t | [] -> infinity in
            Float.max 0.01
              (Float.min 0.2 (Float.min (next_deadline -. now) (next_retry -. now)))
          in
          let readable =
            if fds = [] then (Retry.sleepf timeout; [])
            else begin
              (* Re-arm after EINTR with the *remaining* wait against a
                 monotonic deadline — re-arming the full timeout would let a
                 stream of signals postpone per-item deadlines forever. An
                 interrupt request still breaks out immediately so graceful
                 teardown is not delayed by the residual wait. *)
              let wake = Clock.now () +. timeout in
              let rec poll () =
                let remaining = wake -. Clock.now () in
                if remaining <= 0. then []
                else
                  match Unix.select fds [] [] remaining with
                  | r, _, _ -> r
                  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    if Checkpoint.interrupted () then [] else poll ()
              in
              poll ()
            end
          in
          List.iter
            (fun fd ->
              match Array.find_opt (fun s -> s.s_alive && s.s_resp = fd) slots with
              | None -> ()
              | Some slot ->
                (match Worker.feed slot.s_buf fd with
                 | exception Unix.Unix_error _ -> worker_died slot ~reason:"read failed"
                 | `Eof -> worker_died slot ~reason:"worker closed its pipe"
                 | `Data _ ->
                   let rec drain () =
                     if slot.s_alive then
                       match Worker.extract slot.s_buf with
                       | Ok None -> ()
                       | Error msg -> worker_died slot ~reason:("protocol error: " ^ msg)
                       | Ok (Some json) ->
                         (match Worker.response_of_json json with
                          | exception Checkpoint.Codec.Parse msg ->
                            worker_died slot ~reason:("malformed response: " ^ msg)
                          | resp ->
                            if
                              resp.Worker.r_index <> slot.s_item
                              || resp.Worker.r_attempt <> slot.s_attempt
                            then
                              worker_died slot
                                ~reason:"response does not match the dispatched item"
                            else begin
                              handle_result slot resp;
                              drain ()
                            end)
                   in
                   drain ()))
            readable;
          (* Sweep per-item timeouts: the worker is presumed wedged. *)
          let now = Clock.now () in
          Array.iter
            (fun s ->
              if s.s_alive && s.s_item >= 0 && now > s.s_deadline then begin
                counters.c_timeouts <- counters.c_timeouts + 1;
                post_event cfg "item_timeout"
                  [ ("item", J.Int s.s_item); ("attempt", J.Int s.s_attempt);
                    ("worker", J.Int s.s_id) ];
                worker_died s ~reason:"item timeout"
              end)
            slots
        end;
        loop ()
      end
    end
  in
  loop ();
  (* Teardown: a graceful quit drains nothing (idle workers exit on Quit or
     on request-pipe EOF); an interrupted run SIGKILLs its in-flight
     workers, whose items then stay unexplored for a resume. *)
  if !stopped then Array.iter (fun s -> if s.s_alive then ignore (kill_slot s)) slots
  else begin
    Array.iter
      (fun s ->
        if s.s_alive then begin
          (try Worker.send s.s_req (Worker.request_to_json Worker.Quit)
           with Unix.Unix_error _ | Sys_error _ -> ());
          forget_ends s;
          try Unix.close s.s_req with Unix.Unix_error _ -> ()
        end)
      slots;
    let t_quit = Clock.now () in
    Array.iter
      (fun s ->
        if s.s_alive then begin
          let rec reap () =
            match Unix.waitpid [ Unix.WNOHANG ] s.s_pid with
            | 0, _ ->
              if Clock.now () -. t_quit > 2.0 then begin
                (try Unix.kill s.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
                match Retry.eintr (fun () -> Unix.waitpid [] s.s_pid) with
                | _, st -> status_reason st
                | exception Unix.Unix_error _ -> "already reaped"
              end
              else begin
                Retry.sleepf 0.02;
                reap ()
              end
            | _, st -> status_reason st
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
            | exception Unix.Unix_error _ -> "already reaped"
          in
          let status = reap () in
          (try Unix.close s.s_resp with Unix.Unix_error _ -> ());
          s.s_alive <- false;
          post_event cfg "worker_exit"
            [ ("worker", J.Int s.s_id); ("pid", J.Int s.s_pid); ("status", J.Str status) ]
        end)
      slots
  end;
  let elapsed = plan.prior_elapsed +. (Clock.now () -. t0) in
  Option.iter (fun p -> Progress.force p sample) progress;
  let report, tbl =
    finalize ~results ~prior:plan.prior ~winner:!winner
      ~expand_timed_out:plan.expand_timed_out
  in
  (* Pool telemetry rides along as gauges only when metrics were requested
     — gauges are exempt from the jobs-determinism guarantee (see
     DESIGN.md). *)
  let metrics =
    if not cfg.C.metrics then report.Report.metrics
    else
      List.fold_left
        (fun m (name, v) -> M.Snapshot.with_gauge m name v)
        report.Report.metrics
        [ ("par/jobs", workers); ("par/items", n); ("par/expand_us", plan.expand_us);
          ("sup/spawns", counters.c_spawns); ("sup/restarts", counters.c_restarts);
          ("sup/timeouts", counters.c_timeouts); ("sup/retries", counters.c_retries);
          ("sup/crashes", counters.c_crashes); ("sup/quarantined", counters.c_quarantined) ]
  in
  let report =
    { report with
      Report.metrics;
      (* The frontier expansion is startup work, not exploration, so
         [execs_per_sec] must not be diluted by it. *)
      stats =
        { report.Report.stats with
          Report.elapsed;
          search_elapsed = elapsed -. (float_of_int plan.expand_us /. 1e6) } }
  in
  Option.iter (fun r -> r.flush report tbl) plan.recorder;
  post_event cfg "supervisor_done"
    [ ("verdict", J.Str (Report.verdict_key report.Report.verdict));
      ("spawns", J.Int counters.c_spawns);
      ("restarts", J.Int counters.c_restarts);
      ("timeouts", J.Int counters.c_timeouts);
      ("retries", J.Int counters.c_retries);
      ("crashes", J.Int counters.c_crashes);
      ("quarantined", J.Int counters.c_quarantined) ];
  report

let run ?resume (cfg : C.t) prog =
  let jobs = pool_size cfg in
  let mismatch shape =
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf
            "checkpoint payload does not fit %s (resume with the jobs setting that \
             wrote it)"
            shape))
  in
  if jobs <= 1 || cfg.C.mode = C.Round_robin then
    (* Sequential; round-robin is a single schedule, nothing to shard. *)
    match resume with
    | None -> Search.run cfg prog
    | Some (Checkpoint.Seq sq) -> Search.run ~resume:sq cfg prog
    | Some (Checkpoint.Par _ | Checkpoint.Par_sampling _) -> mismatch "a sequential search"
  else begin
    let t0 = Clock.now () in
    let deadline = match cfg.C.time_limit with None -> infinity | Some l -> t0 +. l in
    let start () = Search.post_run_start cfg prog in
    let plan =
      match (cfg.C.mode, resume) with
      | (C.Dfs | C.Context_bounded _), None ->
        start ();
        Ok (systematic_plan cfg prog ~t0 ~deadline)
      | (C.Dfs | C.Context_bounded _), Some (Checkpoint.Par pa) ->
        start ();
        Ok (systematic_plan ~resume:pa cfg prog ~t0 ~deadline)
      | (C.Random_walk _ | C.Priority_random _), None ->
        start ();
        sampling_plan cfg prog ~jobs
      | (C.Random_walk _ | C.Priority_random _), Some (Checkpoint.Par_sampling sa) ->
        start ();
        sampling_plan ~resume:sa cfg prog ~jobs
      | _ -> mismatch "a parallel search"
    in
    let report =
      match plan with Ok p -> run_pool cfg prog p ~jobs ~t0 ~deadline | Error r -> r
    in
    Search.post_run_end cfg report;
    report
  end
