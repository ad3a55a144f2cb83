module B = Fairmc_util.Bitset
module Rng = Fairmc_util.Rng
module J = Fairmc_util.Json
module C = Search_config
module Obs = Fairmc_obs
module M = Fairmc_obs.Metrics
module AH = Analysis_hook

(* The execution budget ([max_executions]): the one place that decides
   whether another path may start. Slot [i] counts the paths completed by
   worker [i]; the budget is spent when the slots sum to the limit. A
   sequential search uses one private slot. A parallel search maps the
   slots into a page shared with its forked workers (a temp file, unlinked
   at once): each worker adds to its own slot at path end and reads the sum
   at path start, so at most one in-flight path per worker runs past the
   limit. *)
module Budget = struct
  type cells = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { limit : int; cells : cells; slot : int }

  let shared_cells slots : cells =
    let path = Filename.temp_file "fairmc-budget" ".page" in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.remove path)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| slots |]))

  let create ?(shared = false) ~slots limit =
    let cells =
      if shared then shared_cells slots
      else Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots
    in
    Bigarray.Array1.fill cells 0;
    { limit; cells; slot = 0 }

  let slot t i = { t with slot = i }
  let count t = t.cells.{t.slot}
  let add t n = t.cells.{t.slot} <- count t + n

  let spent t =
    let used = ref 0 in
    for i = 0 to Bigarray.Array1.dim t.cells - 1 do
      used := !used + t.cells.{i}
    done;
    !used >= t.limit
end

type alt = { tid : int; alt : int; cost : int }

(* Everything backtracking needs to resume the path at a frame's node, taken
   just before the frame's decision is applied: the engine's state when the
   run can be saved, the fair scheduler, the path-local search registers,
   and the yields taken on the path so far (a resumed execution still counts
   its whole length). [crossed_db] and [rr_next] need no slot: no frame is
   pushed past the depth bound, and round-robin is not systematic. *)
type snap = {
  sn_run : Engine.saved option;
      (* [Some]: rewind the run to it; [None]: re-execute the engine alone
         up to the node *)
  sn_steps : int;  (* the node's step count ... *)
  sn_enabled : B.t;  (* ... and enabled set, checked after a re-execution *)
  sn_fair : int array;  (* [Fair_sched.pack] *)
  sn_budget : int;
  sn_last : int;
  sn_last_yielded : bool;
  sn_yields : int;
}

type frame = {
  mutable chosen : alt;
  mutable rest : alt list;
  mutable sleep : B.t;
  width : int;
      (* branching factor when the node was pushed (before siblings were
         consumed) — the Estimator probe weight of every leaf below *)
  cum : int;
      (* cumulative Estimator weight down to this frame: the ancestor product
         of [1/width], maintained at push so a completed path reads its leaf
         weight in O(1) *)
  mutable snap : snap option;
      (* kept while [rest <> []]: backtracking here resumes from it instead
         of replaying the prefix through the search loop *)
}

(* A locked scheduling decision handed to a parallel work item: the worker
   replays the prefix and explores only the subtree below it ([rest] of every
   prefix frame is empty, so backtracking can never leave the subtree). The
   sleep set is the one the sequential DFS would carry at the moment it
   enters this child, which depends only on the order of elder siblings —
   this is what makes the parallel decomposition exact. *)
type pdecision = {
  p_tid : int;
  p_alt : int;
  p_cost : int;
  p_sleep : B.t;
  p_width : int;
}

(* Why a path ended. *)
type path_end =
  | P_terminated
  | P_deadlock
  | P_safety of int * Engine.failure
  | P_divergence of Report.divergence_kind
  | P_nonterminating  (* hit the hard step cap *)
  | P_pruned  (* depth bound without random tail, or CB/sleep-set pruning *)
  | P_stopped  (* wall-clock budget exhausted or interrupted *)
  | P_frontier  (* parallel expansion: the split depth was reached *)

(* Pre-registered instruments: registered once per search (or shard), so hot
   paths pay a single [option] branch plus a mutable store per event. Only
   allocated when [cfg.metrics] is set — with observability off, [meters] is
   [None] and no registry exists (see DESIGN.md, "Observability"). *)
type meters = {
  reg : M.t;
  m_replay_steps : M.counter;
      (* prefix decisions re-executed from the initial state, through the
         search loop or by the engine alone *)
  m_restored_steps : M.counter;
      (* prefix decisions reached by a rewind: the restored prefix plus the
         rewound frame's next alternative *)
  m_fresh_steps : M.counter;  (* new systematic decision points *)
  m_sampled_steps : M.counter;  (* random-walk / rr / prio / random-tail steps *)
  m_path_len : M.histogram;  (* steps per execution *)
  m_sched_size : M.histogram;  (* |T| at each scheduling point *)
  m_e_size : M.histogram;  (* chosen thread's E window after its step *)
  m_d_size : M.histogram;
  m_s_size : M.histogram;
  m_pri_edges : M.gauge;  (* peak |P| *)
  m_ops : M.counter array;  (* per Op.kind transition counts *)
  m_ctx_switches : M.counter;
  m_fair_obs : Fair_sched.obs;  (* priority-relation update accounting *)
  m_span_replay : M.histogram;  (* per-path prefix latency (replay or rewind), µs *)
  m_span_fresh : M.histogram;  (* per-path fresh-execution latency, µs *)
  m_span_analysis : M.histogram;  (* per-path analysis-observer latency, µs *)
  m_span_ckpt : M.histogram;  (* checkpoint-save latency, µs *)
  mutable m_log : Bytes.t;
      (* the current path's per-step observations, [log_stride] bytes per
         step (see [log_set]), re-observed when a rewind or a re-execution
         reaches the prefix so that histograms count every execution in
         full; only kept by systematic searches *)
}

let log_stride = 7

let make_meters () =
  let reg = M.create () in
  { reg;
    m_replay_steps = M.counter reg "search/steps/replay";
    m_restored_steps = M.counter reg "search/steps/restored";
    m_fresh_steps = M.counter reg "search/steps/fresh";
    m_sampled_steps = M.counter reg "search/steps/sampled";
    m_path_len = M.histogram reg "search/path_length";
    m_sched_size = M.histogram reg "sched/schedulable_size";
    m_e_size = M.histogram reg "sched/window/e_size";
    m_d_size = M.histogram reg "sched/window/d_size";
    m_s_size = M.histogram reg "sched/window/s_size";
    m_pri_edges = M.gauge reg "sched/priority_edges_peak";
    m_ops = Array.init Op.n_kinds (fun k -> M.counter reg ("engine/op/" ^ Op.kind_name k));
    m_ctx_switches = M.counter reg "engine/context_switches";
    m_fair_obs = Fair_sched.obs_create ();
    m_span_replay = M.histogram reg (Obs.Span.hist_name "replay");
    m_span_fresh = M.histogram reg (Obs.Span.hist_name "fresh");
    m_span_analysis = M.histogram reg (Obs.Span.hist_name "analysis");
    m_span_ckpt = M.histogram reg (Obs.Span.hist_name "checkpoint_save");
    m_log = Bytes.empty }

(* Slot [i] of step [k] in the path log: 0 is |T| at the step, 1-3 the
   chosen thread's E/D/S window sizes after it, 4-6 the priority-relation
   counts it added to [m_fair_obs]. Each is at most the thread count, which
   a bitset caps below 64, so a byte holds it. *)
let log_set m k i v =
  let j = (k * log_stride) + i in
  if j >= Bytes.length m.m_log then
    m.m_log <- Bytes.extend m.m_log 0 (max 1024 (2 * (j + log_stride)) - Bytes.length m.m_log);
  Bytes.unsafe_set m.m_log j (Char.unsafe_chr v)

(* Cumulative totals carried over from a checkpoint being resumed. The
   session itself counts from zero; the prior is folded in at every boundary
   capture and in the final report ({!totals}). *)
type prior = {
  pr_stats : Report.stats;
  pr_metrics : M.Snapshot.t;
  pr_edges : AH.lock_edge list;
}

(* Checkpoint-writing control for this search ([--checkpoint FILE]). The
   boundary snapshot is (re)captured at every path start; writes are
   throttled by [ck_interval] and forced once when the search stops. *)
type ckpt_ctl = {
  ck_path : string;
  ck_interval : float;
  mutable ck_last : float;
  mutable ck_boundary : Checkpoint.seq_state option;
}

type state = {
  cfg : C.t;
  prog : Program.t;
  mutable frames : frame array;
  mutable nframes : int;
  mutable run : Engine.t option;
      (* the session's run, kept between paths while it can be rewound *)
  states : (int64, unit) Hashtbl.t;
  rng : Rng.t;
  t0 : float;
  deadline : float;  (* absolute; [infinity] when unlimited *)
  poll_mask : int;
  budget : Budget.t option;  (* [max_executions]; [None] when unlimited *)
  frontier_at : int;  (* cut fresh decisions at this depth; [max_int] = never *)
  probe_denom : int;  (* sampling: original (unsharded) budget; 0 = systematic *)
  meters : meters option;
  progress : Obs.Progress.t option;
  events : Obs.Events.buf option;  (* shard-local telemetry batch buffer *)
  span_buf : Obs.Events.buf option;
      (* [events] again iff the stream collects (trace export wants per-path
         span slices); [None] for a plain streaming sink, which then pays
         only one path event per execution *)
  analysis : AH.instance list;  (* this shard's dynamic-analysis instances *)
  mutable prior : prior option;  (* resumed-session totals to merge in *)
  mutable ckpt : ckpt_ctl option;  (* only set by [Search.run], never shards *)
  mutable probe_mass : int;  (* this session's accumulated Estimator mass *)
  mutable analysis_us : int;  (* current path's analysis-observer time *)
  mutable executions : int;
  mutable transitions : int;
  mutable nonterminating : int;
  mutable depth_bound_hits : int;
  mutable sleep_set_prunes : int;
  mutable conflict_hits : int;  (* static conflict table reported a conflict *)
  mutable yields : int;
  mutable max_depth : int;
  mutable first_error_execution : int option;
  mutable first_error_time : float option;
  mutable sync_ops_per_exec : int;
  mutable max_threads : int;
}

let dummy_frame =
  { chosen = { tid = 0; alt = 0; cost = 0 };
    rest = [];
    sleep = B.empty;
    width = 1;
    cum = Obs.Estimator.one;
    snap = None }

let push_frame st fr =
  if st.nframes = Array.length st.frames then begin
    let a = Array.make (max 64 (2 * st.nframes)) dummy_frame in
    Array.blit st.frames 0 a 0 st.nframes;
    st.frames <- a
  end;
  st.frames.(st.nframes) <- fr;
  st.nframes <- st.nframes + 1

(* Leaf weight of the current stack: [Estimator.one] above an empty stack. *)
let top_weight st =
  if st.nframes = 0 then Obs.Estimator.one else st.frames.(st.nframes - 1).cum

(* All elapsed-time accounting funnels through the one (monotonic-ish) clock
   of the observability layer; [t0] is captured from it too, so [elapsed]
   cannot go negative and deadline checks cannot flap under clock steps. *)
let elapsed st = Obs.Clock.elapsed ~since:st.t0

let out_of_time st = Obs.Clock.now () > st.deadline

(* The wall clock and the process-wide graceful interrupt (SIGINT/SIGTERM
   via Checkpoint) are folded into the same poll. *)
let stopped st = out_of_time st || Checkpoint.interrupted ()

let budget_spent st = match st.budget with Some b -> Budget.spent b | None -> false

(* Search-wide totals for a progress sample: this session's counters plus
   any resumed prior. *)
let progress_totals st =
  match st.prior with
  | Some p ->
    ( st.executions + p.pr_stats.Report.executions,
      st.probe_mass + p.pr_stats.Report.probe_mass )
  | None -> (st.executions, st.probe_mass)

let progress_sample st () =
  let executions, mass = progress_totals st in
  let el = elapsed st in
  { Obs.Progress.executions;
    elapsed = el;
    jobs = max 1 st.cfg.C.jobs;
    phase = "search";
    completion = (if mass > 0 then Some (Obs.Estimator.completion ~mass) else None);
    est_total = Obs.Estimator.est_total ~mass ~executions;
    eta = Obs.Estimator.eta ~mass ~elapsed:el }

let maybe_tick st =
  match st.progress with
  | None -> ()
  | Some p -> Obs.Progress.tick p (progress_sample st)

(* Poll points share one clock read: tick the progress reporter, then check
   the deadline and the interrupt flag. *)
let poll st =
  maybe_tick st;
  stopped st

(* The sinks of a search's progress reporter; [None] when progress reporting
   is off. *)
let progress_of_cfg (cfg : C.t) =
  let sinks =
    (if cfg.C.progress then [ Obs.Progress.stderr_sink ] else [])
    @ (match cfg.C.on_progress with Some f -> [ f ] | None -> [])
  in
  if sinks = [] then None
  else Some (Obs.Progress.create ~interval:cfg.C.progress_interval ~sinks ())

let mask_of_interval n =
  let n = max 1 n in
  let rec go m = if m >= n then m - 1 else go (m * 2) in
  go 1

(* Sampling modes weigh every execution [1/original-budget]; parallel shards
   carry shrunk budgets in their own [cfg], so the supervisor passes the
   original explicitly via [?probe_denom]. Systematic modes use 0: leaf
   weights come from the frame widths instead. *)
let default_probe_denom (cfg : C.t) =
  match cfg.C.mode with
  | C.Dfs | C.Context_bounded _ -> 0
  | C.Random_walk n | C.Priority_random n -> max 1 n
  | C.Round_robin -> 1

let make_state ?deadline ?rng ?(prefix = [||]) ?budget ?probe_denom
    ?(frontier_at = max_int) ?(shard = 0) ?progress (cfg : C.t) prog =
  let deadline =
    match deadline with
    | Some d -> d
    | None ->
      (match cfg.time_limit with
       | None -> infinity
       | Some l -> Obs.Clock.now () +. l)
  in
  let nprefix = Array.length prefix in
  let frames = Array.make (max 64 nprefix) dummy_frame in
  let w = ref Obs.Estimator.one in
  Array.iteri
    (fun i (p : pdecision) ->
      w := Obs.Estimator.descend !w p.p_width;
      frames.(i) <-
        { chosen = { tid = p.p_tid; alt = p.p_alt; cost = p.p_cost };
          rest = [];
          sleep = p.p_sleep;
          width = p.p_width;
          cum = !w;
          snap = None })
    prefix;
  let events = Option.map (fun s -> Obs.Events.buffer s ~shard) cfg.events in
  { cfg;
    prog;
    frames;
    nframes = nprefix;
    run = None;
    states = Hashtbl.create 4096;
    rng = (match rng with Some r -> r | None -> Rng.make cfg.seed);
    t0 = Obs.Clock.now ();
    deadline;
    poll_mask = mask_of_interval cfg.poll_interval;
    budget =
      (match budget with
       | Some _ -> budget
       | None -> Option.map (Budget.create ~slots:1) cfg.max_executions);
    frontier_at;
    probe_denom = (match probe_denom with Some d -> d | None -> default_probe_denom cfg);
    meters = (if cfg.metrics then Some (make_meters ()) else None);
    progress;
    events;
    span_buf =
      (match cfg.events with
       | Some s when Obs.Events.collecting s -> events
       | _ -> None);
    analysis = List.map (fun (a : AH.t) -> a.create ()) cfg.analyses;
    prior = None;
    ckpt = None;
    probe_mass = 0;
    analysis_us = 0;
    executions = 0;
    transitions = 0;
    nonterminating = 0;
    depth_bound_hits = 0;
    sleep_set_prunes = 0;
    conflict_hits = 0;
    yields = 0;
    max_depth = 0;
    first_error_execution = None;
    first_error_time = None;
    sync_ops_per_exec = 0;
    max_threads = 0 }

(* [FAIRMC_DEBUG] set: trace every path end and sleep-set prune on stderr. *)
let debug = Sys.getenv_opt "FAIRMC_DEBUG" <> None

(* Debug/analysis hook: receives (signature, decision prefix) for every
   recorded state. Used by the coverage cross-checking tests (sequential
   searches only). *)
let state_hook : (int64 -> Engine.t -> unit) option ref = ref None

let record_state st run =
  if st.cfg.coverage then begin
    let s = Engine.state_signature run in
    Hashtbl.replace st.states s ();
    match !state_hook with None -> () | Some f -> f s run
  end

(* Alternatives at a fresh systematic node, ordered current-thread-first,
   with context-switch costs and the sleep-set filter applied. Preempting an
   enabled, schedulable current thread costs one unit of the context bound;
   switches forced by fairness or blocking are free (paper, Section 4), and
   so are switches right after the current thread yielded — a yield is a
   voluntary release of the processor, not a preemption. Built in one pass
   over the bitset, allocating only the result cells (this is the hottest
   allocation site of the systematic search). *)
let compute_alts st ~tset ~sleep ~last ~last_yielded ~budget run =
  let cur_in = last >= 0 && B.mem last tset in
  let cur_runnable = cur_in && not last_yielded in
  let for_tid tid tail =
    if st.cfg.sleep_sets && B.mem tid sleep then tail
    else begin
      let cost = if tid = last then 0 else if cur_runnable then 1 else 0 in
      if cost > budget then tail
      else begin
        let n = Engine.alternatives run tid in
        let rec cons alt = if alt >= n then tail else { tid; alt; cost } :: cons (alt + 1) in
        cons 0
      end
    end
  in
  let rec others s tail =
    if B.is_empty s then tail
    else begin
      let tid = B.min_elt s in
      let rest = B.remove tid s in
      if tid = last then others rest tail else for_tid tid (others rest tail)
    end
  in
  (* Prefer staying on the current thread (cheap, finds terminating paths
     early) — except right after it yielded, where switching is the natural
     continuation. *)
  if last_yielded then others tset (if cur_in then for_tid last [] else [])
  else if cur_in then for_tid last (others tset [])
  else others tset []

(* Deterministic good-samaritan culprit over [(tid, times_scheduled,
   yielded_in_window)] entries: the most-scheduled thread, non-yielders
   outranking yielders, ties broken by lowest tid. (Previously the max was
   taken under [Hashtbl.fold], whose iteration order — and hence the blamed
   tid on equal scores — was unspecified.) Exposed for the regression test. *)
let good_samaritan_culprit entries =
  fst
    (List.fold_left
       (fun (best, bn) (tid, n, yielded) ->
         let score = if yielded then n else n + 1_000_000 in
         if score > bn || (score = bn && tid < best) then (tid, score) else (best, bn))
       (-1, min_int) entries)

(* Classify a divergent (livelock-bound-exceeding) fair execution by its
   tail: if an enabled thread was starved by non-yielding threads it is a
   good-samaritan violation; otherwise the tail is fair — a livelock. *)
let classify_divergence st run : Report.divergence_kind =
  let tr = Engine.trace run in
  let evs = Trace.last_n tr (min st.cfg.tail_window (Trace.length tr)) in
  let scheduled = Hashtbl.create 16 and yielders = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace scheduled e.tid
        (1 + Option.value ~default:0 (Hashtbl.find_opt scheduled e.tid));
      if e.yielded then Hashtbl.replace yielders e.tid ())
    evs;
  let es = Engine.enabled_set run in
  let starved = B.filter (fun t -> not (Hashtbl.mem scheduled t)) es in
  if B.is_empty starved then Report.Fair_nontermination
  else begin
    (* Blame the most-scheduled thread, preferring one that never yielded in
       the window. *)
    let entries =
      Hashtbl.fold (fun tid n acc -> (tid, n, Hashtbl.mem yielders tid) :: acc) scheduled []
    in
    Report.Good_samaritan_violation (good_samaritan_culprit entries)
  end

let render_cex ?(tail = false) st run =
  let tr = Engine.trace run in
  let names = Objects.pp_obj (Engine.store run) in
  let tail_n =
    if tail then Some st.cfg.tail_window
    else if Trace.length tr > 400 then Some 400
    else None
  in
  let rendered = Format.asprintf "@[<v>%a@]" (Trace.pp ?tail:tail_n ~names) tr in
  { Report.rendered; decisions = Trace.decisions tr; length = Trace.length tr }

let release_run st =
  match st.run with
  | Some r ->
    Engine.stop r;
    st.run <- None
  | None -> ()

(* A rewind or an engine-only re-execution stands in for the search loop on
   the executions' shared prefix: credit the transitions, yields and
   per-step observations the loop would have counted, so every execution
   still counts in full. [counter] picks the prefix-step counter: restored
   for a rewind, replay for a re-execution. *)
let credit_prefix st ~counter ~steps:i ~yields =
  st.transitions <- st.transitions + i;
  st.yields <- st.yields + yields;
  match st.meters with
  | None -> ()
  | Some m ->
    M.add (counter m) i;
    let fo = m.m_fair_obs in
    for k = 0 to i - 1 do
      let b = k * log_stride in
      let l j = Char.code (Bytes.unsafe_get m.m_log (b + j)) in
      M.observe m.m_sched_size (l 0);
      if st.cfg.fair then begin
        M.observe m.m_e_size (l 1);
        M.observe m.m_d_size (l 2);
        M.observe m.m_s_size (l 3);
        fo.edges_added <- fo.edges_added + l 4;
        fo.edges_removed <- fo.edges_removed + l 5;
        fo.penalties <- fo.penalties + l 6
      end
    done

let not_deterministic st ~step what =
  failwith
    (Printf.sprintf
       "Search: program %s is not deterministic: re-executing the path prefix %s at step %d"
       st.prog.Program.name what step)

(* Reach the node of a frame that has a snapshot but no saved run: boot a new
   run and step the prefix decisions through the engine alone, without the
   search-side work of a step (the snapshot restores its results), polling
   the clock as the search loop does. Returns [false] when stopped. A
   program that does not reach the recorded node fails the search: it would
   otherwise explore the wrong subtree. *)
let reexecute st (sn : snap) =
  release_run st;
  let run = Engine.start st.prog in
  st.run <- Some run;
  List.iter (fun (i : AH.instance) -> i.exec_start run) st.analysis;
  let rec go k =
    if k = sn.sn_steps then begin
      if not (B.equal (Engine.enabled_set run) sn.sn_enabled) then
        not_deterministic st ~step:k "reached a different enabled set";
      true
    end
    else if k land st.poll_mask = st.poll_mask && poll st then false
    else begin
      let a = st.frames.(k).chosen in
      if Engine.failure run <> None then not_deterministic st ~step:k "failed";
      if not (B.mem a.tid (Engine.enabled_set run)) || a.alt >= Engine.alternatives run a.tid
      then not_deterministic st ~step:k (Printf.sprintf "cannot take thread %d" a.tid);
      Engine.step run ~tid:a.tid ~alt:a.alt;
      go (k + 1)
    end
  in
  (run, go 0)

(* Execute one path. Systematic modes first reach the top frame's node: from
   the frame's snapshot when it has one, by rewinding the session's run or
   else by re-executing the engine alone; without a snapshot, by starting a
   new run and replaying the frame prefix through the search loop. Then the
   path is extended with fresh decisions until it ends. *)
let execute_path st ~systematic =
  let cfg = st.cfg in
  let spans_on = Option.is_some st.meters || Option.is_some st.span_buf in
  let nframes0 = st.nframes in
  let t_path = Obs.Span.start () in
  (* Set at the first non-prefix decision: splits the path's wall time into
     its replay (or rewind) and fresh segments. *)
  let t_fresh = ref None in
  let top = if systematic && st.nframes > 0 then Some st.frames.(st.nframes - 1) else None in
  let run, fair, budget, last, last_yielded, path_yields, reached =
    match top with
    | Some ({ snap = Some sn; _ } as fr) ->
      (* The last alternative: nothing comes back here. *)
      if fr.rest = [] then fr.snap <- None;
      let run, reached =
        match (sn.sn_run, st.run) with
        | Some saved, Some run ->
          Engine.rewind run saved;
          credit_prefix st ~counter:(fun m -> m.m_restored_steps) ~steps:sn.sn_steps
            ~yields:sn.sn_yields;
          (run, `Rewound)
        | _ ->
          let run, complete = reexecute st sn in
          let steps = Engine.steps run in
          let yields =
            if complete then sn.sn_yields
            else begin
              let n = ref 0 in
              for i = 0 to steps - 1 do
                if (Trace.get (Engine.trace run) i).Trace.yielded then incr n
              done;
              !n
            end
          in
          credit_prefix st ~counter:(fun m -> m.m_replay_steps) ~steps ~yields;
          (run, if complete then `Reexecuted else `Stopped)
      in
      ( run,
        Fair_sched.unpack sn.sn_fair,
        sn.sn_budget,
        sn.sn_last,
        sn.sn_last_yielded,
        sn.sn_yields,
        reached )
    | _ ->
      release_run st;
      let run = Engine.start st.prog in
      st.run <- Some run;
      List.iter (fun (i : AH.instance) -> i.exec_start run) st.analysis;
      record_state st run;
      ( run,
        Fair_sched.create ~nthreads:(Engine.nthreads run) ~k:cfg.fair_k (),
        (match cfg.mode with C.Context_bounded c -> c | _ -> max_int),
        -1,
        false,
        0,
        `Started )
  in
  let can_save = systematic && Engine.saveable run in
  let fair = ref fair in
  let budget = ref budget in
  let last = ref last in
  let last_yielded = ref last_yielded in
  let path_yields = ref path_yields in
  let depth = ref (match reached with `Started -> 0 | _ -> st.nframes - 1) in
  let crossed_db = ref false in
  let rr_next = ref 0 in
  let snapshot es =
    Some
      { sn_run = (if can_save then Some (Engine.save run) else None);
        sn_steps = Engine.steps run;
        sn_enabled = es;
        sn_fair = Fair_sched.pack !fair;
        sn_budget = !budget;
        sn_last = !last;
        sn_last_yielded = !last_yielded;
        sn_yields = !path_yields }
  in
  (* Sleep set of the next fresh node, computed when its parent's decision is
     applied (we need the parent state's pending operations). *)
  let pending_sleep = ref B.empty in
  let livelock_bound =
    if cfg.fair then Option.value cfg.livelock_bound ~default:cfg.max_steps else max_int
  in
  let apply (a : alt) =
    if cfg.sleep_sets && systematic && !depth > 0 && !depth = st.nframes then begin
      (* The next node is fresh: derive its sleep set from this node's. *)
      let fr = st.frames.(!depth - 1) in
      match Engine.pending run a.tid with
      | None -> pending_sleep := B.empty
      | Some op_a ->
        let facts = st.prog.Program.facts in
        pending_sleep :=
          B.filter
            (fun u ->
              match Engine.pending run u with
              | None -> false
              | Some op_u ->
                let indep =
                  Indep.independent ?facts ~t1:a.tid ~op1:op_a ~t2:u ~op2:op_u
                    ~fair:cfg.fair ()
                in
                (* Count dependencies the static table finds beyond the
                   syntactic rule (each fresh node is derived exactly once
                   search-wide, so the counter sums jobs-invariantly). *)
                (match facts with
                 | Some f
                   when (not indep)
                        && Static_facts.conflict f ~t1:a.tid ~op1:op_a ~t2:u ~op2:op_u
                        && Option.is_some (Op.obj_of op_a)
                        && Option.is_some (Op.obj_of op_u)
                        && Op.obj_of op_a <> Op.obj_of op_u ->
                   st.conflict_hits <- st.conflict_hits + 1
                 | _ -> ());
                indep)
            fr.sleep
    end
    else pending_sleep := B.empty;
    let es_before = Engine.enabled_set run in
    let yielded = Engine.would_yield run a.tid in
    let nth_before = Engine.nthreads run in
    budget := !budget - a.cost;
    Engine.step run ~tid:a.tid ~alt:a.alt;
    for _ = nth_before + 1 to Engine.nthreads run do
      fair := Fair_sched.add_thread !fair
    done;
    if cfg.fair then begin
      let es_after = Engine.enabled_set run in
      match st.meters with
      | None -> fair := Fair_sched.step !fair ~chosen:a.tid ~yielded ~es_before ~es_after
      | Some m ->
        let fo = m.m_fair_obs in
        let added = fo.edges_added and removed = fo.edges_removed and pens = fo.penalties in
        fair := Fair_sched.step ~obs:fo !fair ~chosen:a.tid ~yielded ~es_before ~es_after;
        M.set_max m.m_pri_edges (Fair_sched.edge_count !fair);
        let e, d, s = Fair_sched.sets !fair ~tid:a.tid in
        let e = B.cardinal e and d = B.cardinal d and s = B.cardinal s in
        M.observe m.m_e_size e;
        M.observe m.m_d_size d;
        M.observe m.m_s_size s;
        if systematic then begin
          let k = Engine.steps run - 1 in
          log_set m k 1 e;
          log_set m k 2 d;
          log_set m k 3 s;
          log_set m k 4 (fo.edges_added - added);
          log_set m k 5 (fo.edges_removed - removed);
          log_set m k 6 (fo.penalties - pens)
        end
    end;
    last := a.tid;
    last_yielded := yielded;
    if yielded then begin
      st.yields <- st.yields + 1;
      incr path_yields
    end;
    st.transitions <- st.transitions + 1;
    st.max_depth <- max st.max_depth (Engine.steps run);
    record_state st run
  in
  let random_from tset =
    let tid = B.nth tset (Rng.int st.rng (B.cardinal tset)) in
    let alts = Engine.alternatives run tid in
    { tid; alt = (if alts = 1 then 0 else Rng.int st.rng alts); cost = 0 }
  in
  let sample tset =
    match cfg.mode with
    | C.Random_walk _ -> random_from tset
    | C.Round_robin ->
      let n = Engine.nthreads run in
      let rec find i =
        let tid = i mod n in
        if B.mem tid tset then tid else find (i + 1)
      in
      let tid = find !rr_next in
      rr_next := tid + 1;
      { tid; alt = 0; cost = 0 }
    | C.Priority_random _ ->
      (* Apt–Olderog-style: fresh random priorities every step. *)
      let best = ref (-1) and best_p = ref min_int in
      B.iter
        (fun tid ->
          let p = Rng.int st.rng 1_000_000 in
          if p > !best_p then begin best := tid; best_p := p end)
        tset;
      let alts = Engine.alternatives run !best in
      { tid = !best; alt = (if alts = 1 then 0 else Rng.int st.rng alts); cost = 0 }
    | C.Dfs | C.Context_bounded _ -> assert false
  in
  let rec loop () =
    match Engine.failure run with
    | Some (tid, f) -> P_safety (tid, f)
    | None ->
      if Engine.all_finished run then P_terminated
      else begin
        let es = Engine.enabled_set run in
        if B.is_empty es then P_deadlock
        else begin
          let steps = Engine.steps run in
          if cfg.fair && steps >= livelock_bound then
            P_divergence (classify_divergence st run)
          else if steps >= cfg.max_steps then P_nonterminating
          else if steps land st.poll_mask = st.poll_mask && poll st then P_stopped
          else begin
            let tset = if cfg.fair then Fair_sched.schedulable !fair ~enabled:es else es in
            (* Theorem 3: T is empty iff ES is empty. *)
            assert (not (B.is_empty tset));
            (match st.meters with
             | Some m ->
               let n = B.cardinal tset in
               M.observe m.m_sched_size n;
               if systematic then log_set m steps 0 n
             | None -> ());
            if systematic && !depth < st.nframes then begin
              (match st.meters with
               | Some m ->
                 M.incr (if reached = `Rewound then m.m_restored_steps else m.m_replay_steps)
               | None -> ());
              let fr = st.frames.(!depth) in
              (* Replaying a frame that still has alternatives (the first
                 path of a resumed session): save its node. *)
              if fr.rest <> [] && Option.is_none fr.snap then fr.snap <- snapshot es;
              incr depth;
              apply fr.chosen;
              loop ()
            end
            else if not systematic then begin
              (match st.meters with Some m -> M.incr m.m_sampled_steps | None -> ());
              if spans_on && Option.is_none !t_fresh then
                t_fresh := Some (Obs.Span.start ());
              apply (sample tset);
              loop ()
            end
            else if st.nframes >= st.frontier_at then
              (* Parallel expansion: everything below this node is one work
                 item; do not extend (nor count) this path. *)
              P_frontier
            else begin
              let beyond_db =
                (not cfg.fair)
                && (match cfg.depth_bound with Some db -> steps >= db | None -> false)
              in
              if beyond_db then begin
                if not !crossed_db then begin
                  st.depth_bound_hits <- st.depth_bound_hits + 1;
                  crossed_db := true
                end;
                if cfg.random_tail then begin
                  (match st.meters with Some m -> M.incr m.m_sampled_steps | None -> ());
                  if spans_on && Option.is_none !t_fresh then
                    t_fresh := Some (Obs.Span.start ());
                  apply (random_from tset);
                  loop ()
                end
                else P_pruned
              end
              else begin
                match
                  compute_alts st ~tset ~sleep:!pending_sleep ~last:!last
                    ~last_yielded:!last_yielded ~budget:!budget run
                with
                | [] ->
                  (* everything pruned by sleep sets *)
                  st.sleep_set_prunes <- st.sleep_set_prunes + 1;
                  if debug then
                    Format.eprintf
                      "PRUNE: depth=%d nframes=%d steps=%d tset=%a last=%d budget=%d@."
                      !depth st.nframes steps B.pp tset !last !budget;
                  P_pruned
                | a :: rest ->
                  (match st.meters with Some m -> M.incr m.m_fresh_steps | None -> ());
                  if spans_on && Option.is_none !t_fresh then
                    t_fresh := Some (Obs.Span.start ());
                  let width = 1 + List.length rest in
                  push_frame st
                    { chosen = a;
                      rest;
                      sleep = !pending_sleep;
                      width;
                      cum = Obs.Estimator.descend (top_weight st) width;
                      snap = (if rest <> [] then snapshot es else None) };
                  incr depth;
                  apply a;
                  loop ()
              end
            end
          end
        end
      end
  in
  let outcome = if reached = `Stopped then P_stopped else loop () in
  if debug then begin
    let ends = match outcome with
      | P_terminated -> "term" | P_deadlock -> "dead" | P_safety _ -> "safe"
      | P_divergence _ -> "div" | P_nonterminating -> "nonterm" | P_pruned -> "pruned"
      | P_stopped -> "stopped" | P_frontier -> "frontier" in
    Format.eprintf "path[%s len=%d]: %s@." ends (Engine.steps run)
      (String.concat "" (List.map (fun (t, _) -> string_of_int t) (Trace.decisions (Engine.trace run))))
  end;
  if spans_on then begin
    let t_end = Obs.Span.start () in
    let total_us = Obs.Span.elapsed_us_between t_path t_end in
    let hist f = Option.map f st.meters in
    let replay_us, fresh_us =
      match !t_fresh with
      | Some tf ->
        let f = Obs.Span.elapsed_us_between tf t_end in
        (max 0 (total_us - f), Some f)
      | None -> (total_us, None)
    in
    if systematic && nframes0 > 0 then
      Obs.Span.record ?hist:(hist (fun m -> m.m_span_replay)) ?events:st.span_buf
        ~phase:"replay" ~dur_us:replay_us ();
    match fresh_us with
    | Some f ->
      Obs.Span.record ?hist:(hist (fun m -> m.m_span_fresh)) ?events:st.span_buf
        ~phase:"fresh" ~dur_us:f ()
    | None -> ()
  end;
  st.sync_ops_per_exec <- max st.sync_ops_per_exec (Engine.sync_ops run);
  st.max_threads <- max st.max_threads (Engine.nthreads run);
  (* A run that cannot be rewound is done with; its trace and store stay
     readable for the caller. *)
  if not can_save then release_run st;
  (outcome, run)

(* Run [f] with the session's run stopped on every exit. *)
let with_run st f = Fun.protect ~finally:(fun () -> release_run st) f

(* Advance the DFS to the next unexplored decision; false when exhausted.
   Prefix frames of a parallel work item have an empty [rest], so the walk
   falls off the bottom of the stack exactly when the subtree is done. *)
let backtrack st =
  let rec go () =
    if st.nframes = 0 then false
    else begin
      let fr = st.frames.(st.nframes - 1) in
      match fr.rest with
      | [] ->
        st.nframes <- st.nframes - 1;
        go ()
      | a :: rest ->
        if st.cfg.sleep_sets && a.tid <> fr.chosen.tid then
          fr.sleep <- B.add fr.chosen.tid fr.sleep;
        fr.chosen <- a;
        fr.rest <- rest;
        true
    end
  in
  go ()

let stats_of st =
  { Report.executions = st.executions;
    transitions = st.transitions;
    states = Hashtbl.length st.states;
    nonterminating = st.nonterminating;
    depth_bound_hits = st.depth_bound_hits;
    sleep_set_prunes = st.sleep_set_prunes;
    yields = st.yields;
    max_depth = st.max_depth;
    elapsed = elapsed st;
    first_error_execution = st.first_error_execution;
    first_error_time = st.first_error_time;
    sync_ops_per_exec = st.sync_ops_per_exec;
    max_threads = st.max_threads;
    search_elapsed = elapsed st;
    probe_mass = st.probe_mass }

(* Export the plain search statistics and the fair-scheduler accounting as
   derived entries over a registry snapshot. Derived quantities that depend
   on wall time or on the shard layout are gauges, never counters — the
   counter slice of a snapshot is deterministic across [jobs] (tested). Pure
   with respect to the registry: the checkpoint layer takes one snapshot per
   path boundary, so exporting must not mutate the instruments. *)
let metrics_of st =
  match st.meters with
  | None -> M.Snapshot.empty
  | Some m ->
    let snap = ref (M.snapshot m.reg) in
    let c name v = snap := M.Snapshot.with_counter !snap name v in
    c "search/executions" st.executions;
    c "search/transitions" st.transitions;
    c "search/nonterminating" st.nonterminating;
    c "search/prunes/depth_bound" st.depth_bound_hits;
    c "search/prunes/sleep_set" st.sleep_set_prunes;
    c "sched/yields" st.yields;
    c "sched/priority_edges_added" m.m_fair_obs.Fair_sched.edges_added;
    c "sched/priority_edges_removed" m.m_fair_obs.Fair_sched.edges_removed;
    c "sched/priority_penalties" m.m_fair_obs.Fair_sched.penalties;
    c "search/probe_mass" st.probe_mass;
    c "static/conflict_hits" st.conflict_hits;
    let g name v = snap := M.Snapshot.with_gauge !snap name v in
    (* A program constant, exported as a gauge (merged by max) so it stays
       jobs- and resume-invariant. *)
    (match st.prog.Program.facts with
     | Some f -> g "static/invisible_merged" (Static_facts.merged_sites f)
     | None -> ());
    g "search/max_depth" st.max_depth;
    g "search/max_threads" st.max_threads;
    g "search/states" (Hashtbl.length st.states);
    g "time/shard_busy_us" (int_of_float (elapsed st *. 1e6));
    !snap

let is_systematic (cfg : C.t) =
  match cfg.mode with
  | C.Dfs | C.Context_bounded _ -> true
  | C.Random_walk _ | C.Round_robin | C.Priority_random _ -> false

(* Earliest race reported by any analysis instance so far (by step of the
   completing access; polled after every path — no allocation when clean). *)
let first_race_of st =
  List.fold_left
    (fun acc (i : AH.instance) ->
      match (acc, i.AH.first_race ()) with
      | None, x -> x
      | (Some _ as a), None -> a
      | Some (a : AH.race), Some b -> Some (if b.b_step < a.b_step then b else a))
    None st.analysis

(* Final analysis results of this shard: the report's [analysis] field plus
   the per-analysis counters to splice into the metrics snapshot. *)
let analysis_report st =
  match st.analysis with
  | [] -> (None, [])
  | insts ->
    let combined = AH.combine (List.map (fun (i : AH.instance) -> i.AH.result ()) insts) in
    ( Some
        { Report.lock_order_edges = combined.AH.lock_edges;
          potential_deadlock_cycles = AH.cycles combined.AH.lock_edges },
      combined.AH.counters )

(* This session's report pieces — stats, metrics with the per-analysis
   counters spliced in, analysis results — with any resumed prior totals
   folded in. Pure; taken once per path boundary when checkpointing. *)
let totals st =
  let analysis, acounters = analysis_report st in
  let metrics =
    List.fold_left (fun m (k, v) -> M.Snapshot.with_counter m k v) (metrics_of st) acounters
  in
  let stats = stats_of st in
  match st.prior with
  | None -> (stats, metrics, analysis)
  | Some p ->
    let stats = Checkpoint.merge_stats ~prior:p.pr_stats stats in
    let metrics = M.Snapshot.merge p.pr_metrics metrics in
    let analysis =
      match analysis with
      | None -> None
      | Some (a : Report.analysis) ->
        let edges = AH.dedup_edges (p.pr_edges @ a.Report.lock_order_edges) in
        Some { Report.lock_order_edges = edges; potential_deadlock_cycles = AH.cycles edges }
    in
    (stats, Report.fix_lockgraph_counters metrics analysis, analysis)

(* Snapshot the DFS stack plus cumulative totals — what a resume needs to
   continue with the next unexplored path. Frames are deep-copied (the
   backtracking mutates them in place); coverage signatures are filled in at
   write time, where the table is only read (recording is idempotent, so a
   resumed session re-recording a partial path's states converges to the
   same union as the uninterrupted run). *)
let capture_boundary st =
  let dec (a : alt) = { Checkpoint.c_tid = a.tid; c_alt = a.alt; c_cost = a.cost } in
  let frames =
    Array.init st.nframes (fun i ->
        let fr = st.frames.(i) in
        { Checkpoint.c_chosen = dec fr.chosen;
          c_rest = List.map dec fr.rest;
          c_sleep = fr.sleep;
          c_width = fr.width })
  in
  let stats, metrics, analysis = totals st in
  let edges =
    match analysis with Some a -> a.Report.lock_order_edges | None -> []
  in
  { Checkpoint.sq_frames = frames;
    sq_rng = Rng.state st.rng;
    sq_stats = stats;
    sq_metrics = metrics;
    sq_states = [];
    sq_edges = edges;
    sq_complete = false }

let write_checkpoint st ck (b : Checkpoint.seq_state) ~complete =
  let states =
    if st.cfg.C.coverage then
      List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) st.states [])
    else []
  in
  ck.ck_last <- Obs.Clock.now ();
  let t = Obs.Span.start () in
  let saved =
    Checkpoint.save_result ck.ck_path
      { Checkpoint.fingerprint = Checkpoint.fingerprint st.cfg ~program:st.prog.Program.name;
        payload =
          Checkpoint.Seq { b with Checkpoint.sq_states = states; sq_complete = complete } }
  in
  (match (st.meters, st.events) with
   | None, None -> ()
   | _ ->
     Obs.Span.record
       ?hist:(Option.map (fun m -> m.m_span_ckpt) st.meters)
       ?events:st.events ~phase:"checkpoint_save" ~dur_us:(Obs.Span.elapsed_us t) ());
  match saved with
  | Ok () ->
    (match st.events with
     | Some buf ->
       Obs.Events.emit buf ~kind:"checkpoint"
         (J.Obj [ ("file", J.Str ck.ck_path); ("complete", J.Bool complete) ])
     | None -> ())
  | Error msg ->
    (* The previous checkpoint is intact; warn (advisory event + stderr via
       [Checkpoint.save_result]'s caller contract) and keep searching. *)
    Printf.eprintf "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!"
      msg;
    (match st.events with
     | Some buf ->
       Obs.Events.emit buf ~kind:"checkpoint_error"
         (J.Obj [ ("file", J.Str ck.ck_path); ("error", J.Str msg) ])
     | None -> ())

(* Schedule fingerprint for path events: FNV-1a-style folding in native-int
   arithmetic — the Int64 {!Fnv} is boxed and costs over a microsecond per
   path here. One multiply per decision; the hash is a deterministic
   correlation identifier, nothing more, and it rides the event as a plain
   JSON int (decimal renders cheaper than hex-in-a-string). *)
let schedule_hash tr =
  let len = Trace.length tr in
  let h = ref 0x4BF29CE484222325 in
  for i = 0 to len - 1 do
    let e = Trace.get tr i in
    h := (!h lxor (e.Trace.tid + (e.Trace.alt lsl 20))) * 0x100000001B3
  done;
  !h land max_int

let run_loop_body st =
  let cfg = st.cfg in
  let systematic = is_systematic cfg in
  let sampling_budget =
    match cfg.mode with
    | C.Random_walk n | C.Priority_random n -> n
    | C.Round_robin -> 1
    | C.Dfs | C.Context_bounded _ -> max_int
  in
  let verdict = ref None in
  (* Where the search stood when a [Limits_reached] stop hit, relative to the
     boundary snapshot: at it, inside the following path, or after completing
     a whole path — this decides what the final checkpoint must record. *)
  let stop_at = ref `Boundary in
  let mark_error () =
    st.first_error_execution <- Some st.executions;
    st.first_error_time <- Some (elapsed st)
  in
  with_run st (fun () ->
    while !verdict = None do
      (* Path boundary: (re)capture the resume snapshot and do a throttled
         checkpoint write. *)
      (match st.ckpt with
       | None -> ()
       | Some ck ->
         let b = capture_boundary st in
         ck.ck_boundary <- Some b;
         if Obs.Clock.now () -. ck.ck_last >= ck.ck_interval then
           write_checkpoint st ck b ~complete:false);
      (* Poll the wall clock, the interrupt flag and the execution budget at
         every path start, so short time budgets cannot overshoot by a whole
         path and a worker never starts a path its peers already used up. *)
      if poll st || budget_spent st then begin
        verdict := Some Report.Limits_reached;
        stop_at := `Boundary
      end
      else begin
        let outcome, run_ = execute_path st ~systematic in
        st.executions <- st.executions + 1;
        (match st.budget with Some b -> Budget.add b 1 | None -> ());
        (* Knuth probe: this leaf's weight is the product of [1/width] over its
           ancestor frames (systematic), or [1/budget] (sampling). Exact
           fixed-point division, so the sum is jobs-deterministic. *)
        let mass =
          if systematic then top_weight st
          else Obs.Estimator.descend Obs.Estimator.one st.probe_denom
        in
        st.probe_mass <- st.probe_mass + mass;
        (match st.meters with
         | None -> ()
         | Some m ->
           let ops = Engine.op_counts run_ in
           Array.iteri (fun k n -> if n > 0 then M.add m.m_ops.(k) n) ops;
           M.add m.m_ctx_switches (Engine.context_switches run_);
           M.observe m.m_path_len (Trace.length (Engine.trace run_)));
        if st.analysis_us > 0 then begin
          Obs.Span.record
            ?hist:(Option.map (fun m -> m.m_span_analysis) st.meters)
            ?events:st.span_buf ~phase:"analysis" ~dur_us:st.analysis_us ();
          st.analysis_us <- 0
        end;
        (match st.events with
         | None -> ()
         | Some buf ->
           let end_name, det =
             match outcome with
             | P_terminated -> ("terminated", true)
             | P_deadlock -> ("deadlock", true)
             | P_safety _ -> ("safety", true)
             | P_divergence _ -> ("divergence", true)
             | P_nonterminating -> ("nonterminating", true)
             | P_pruned -> ("pruned", true)
             | P_stopped -> ("stopped", false)
             | P_frontier -> ("frontier", false)
           in
           let tr = Engine.trace run_ in
           Obs.Events.emit_path buf ~det ~end_:end_name ~steps:(Trace.length tr)
             ~schedule:(schedule_hash tr));
        (match outcome with
         | P_terminated | P_pruned -> ()
         | P_frontier -> assert false  (* only produced under [expand] *)
         | P_deadlock ->
           mark_error ();
           verdict := Some (Report.Deadlock { cex = render_cex st run_ })
         | P_safety (tid, failure) ->
           mark_error ();
           verdict := Some (Report.Safety_violation { tid; failure; cex = render_cex st run_ })
         | P_divergence kind ->
           mark_error ();
           verdict := Some (Report.Divergence { kind; cex = render_cex ~tail:true st run_ })
         | P_nonterminating -> st.nonterminating <- st.nonterminating + 1
         | P_stopped ->
           verdict := Some Report.Limits_reached;
           stop_at := `Mid_path);
        (* An analysis-reported race ends the search like an engine-detected
           error. An engine error on the same path takes precedence (both
           rules are deterministic, so jobs=1 and jobs=N agree); a race beats
           a mere budget stop. *)
        (match !verdict with
         | None | Some Report.Limits_reached ->
           (match first_race_of st with
            | Some race ->
              mark_error ();
              verdict :=
                Some
                  (Report.Race
                     { race;
                       cex =
                         { Report.rendered = race.AH.rendered;
                           decisions = race.AH.decisions;
                           length = race.AH.length } })
            | None -> ())
         | Some _ -> ());
        if !verdict = None && (budget_spent st || stopped st) then begin
          verdict := Some Report.Limits_reached;
          stop_at := `After_path
        end;
        if !verdict = None then begin
          if systematic then begin
            if not (backtrack st) then verdict := Some Report.Verified
          end
          else if st.executions >= sampling_budget then begin
            verdict := Some Report.Limits_reached;
            stop_at := `After_path
          end
        end;
        (* Path boundary: publish this path's event batch. The erroring
           verdicts are themselves deterministic, so the error event is part
           of the [det] slice. *)
        (match (st.events, !verdict) with
         | ( Some buf,
             Some
               (( Report.Safety_violation _ | Report.Deadlock _ | Report.Divergence _
                | Report.Race _ ) as v) ) ->
           Obs.Events.emit buf ~det:true ~kind:"error"
             (J.Obj [ ("verdict", J.Str (Report.verdict_key v)) ])
         | _ -> ());
        match st.events with Some b -> Obs.Events.flush b | None -> ()
      end
    done);
  let final_verdict = Option.get !verdict in
  (* Final checkpoint flush. Where the resume should pick up depends on how
     the stop relates to the last boundary snapshot: a stop at the boundary
     or mid-path flushes the pre-path snapshot (the partial path is excluded
     and re-executed in full by the resume); a stop after a completed path
     must first advance past it — if backtracking fails there is nothing
     left and the session is complete. Sampling modes resume by remaining
     budget, so a budget stop stays [complete:false] (a later session may
     extend the budget). *)
  (match st.ckpt with
   | None -> ()
   | Some ck ->
     (match final_verdict with
      | Report.Limits_reached ->
        (match !stop_at with
         | `Boundary | `Mid_path ->
           let b =
             match ck.ck_boundary with Some b -> b | None -> capture_boundary st
           in
           write_checkpoint st ck b ~complete:false
         | `After_path ->
           if systematic then begin
             if backtrack st then
               write_checkpoint st ck (capture_boundary st) ~complete:false
             else write_checkpoint st ck (capture_boundary st) ~complete:true
           end
           else write_checkpoint st ck (capture_boundary st) ~complete:false)
      | _ -> write_checkpoint st ck (capture_boundary st) ~complete:true));
  (* The final checkpoint may have queued an advisory event after the last
     path-boundary flush. *)
  (match st.events with Some b -> Obs.Events.flush b | None -> ());
  let stats, metrics, analysis = totals st in
  { Report.verdict = final_verdict; stats; metrics; analysis }

(* Install the shard's analysis instances as the engine's step observer for
   the duration of the loop. Cleared on every exit path: a leaked observer
   would bill later searches to these instances. *)
let run_loop st =
  match st.analysis with
  | [] -> run_loop_body st
  | insts ->
    let base =
      match insts with
      | [ i ] -> i.AH.observe
      | _ ->
        fun ~tid ~op ~result ->
          List.iter (fun (i : AH.instance) -> i.AH.observe ~tid ~op ~result) insts
    in
    let observe =
      (* With telemetry on, bill observer time to the per-path "analysis"
         span (two clock reads per observed transition — only when the user
         opted into metrics or span collection). *)
      if Option.is_some st.meters || Option.is_some st.span_buf then
        fun ~tid ~op ~result ->
          let t = Obs.Span.start () in
          base ~tid ~op ~result;
          st.analysis_us <- st.analysis_us + Obs.Span.elapsed_us t
      else base
    in
    Engine.set_observer (Some observe);
    Fun.protect ~finally:(fun () -> Engine.set_observer None) (fun () -> run_loop_body st)

(* Executions left for a resumed session: the mode's sampling budget and
   [max_executions] both count across sessions. [max_int] when unlimited. *)
let remaining_budget (cfg : C.t) prior_execs =
  let mode_left =
    match cfg.mode with
    | C.Random_walk n | C.Priority_random n -> n - prior_execs
    | C.Round_robin -> 1 - prior_execs
    | C.Dfs | C.Context_bounded _ -> max_int
  in
  let cap_left =
    match cfg.max_executions with Some m -> m - prior_execs | None -> max_int
  in
  min mode_left cap_left

(* The resumed session runs only the remaining budget; [totals] then folds
   the prior totals back in, so the merged report matches an uninterrupted
   run with the original budgets. *)
let adjust_budgets (cfg : C.t) prior_execs =
  let clamp n = max 0 n in
  let mode =
    match cfg.mode with
    | C.Random_walk n -> C.Random_walk (clamp (n - prior_execs))
    | C.Priority_random n -> C.Priority_random (clamp (n - prior_execs))
    | (C.Round_robin | C.Dfs | C.Context_bounded _) as m -> m
  in
  let max_executions = Option.map (fun m -> clamp (m - prior_execs)) cfg.max_executions in
  { cfg with C.mode; max_executions }

(* Coordinator lifecycle events, shared with Supervisor. [run_start]'s data
   deliberately excludes [jobs] and budget fields: the det slice must be
   identical between a jobs=1 and a jobs=4 run of the same search. *)
let post_run_start (cfg : C.t) (prog : Program.t) =
  match cfg.C.events with
  | None -> ()
  | Some s ->
    Obs.Events.post s ~shard:(-1) ~det:true ~kind:"run_start"
      (J.Obj
         [ ("program", J.Str prog.Program.name);
           ("mode", J.Str (C.mode_name cfg.C.mode));
           ("fair", J.Bool cfg.C.fair);
           ("seed", J.Str (Printf.sprintf "0x%Lx" cfg.C.seed));
           ("interp", J.Str (C.interp_name cfg.C.interp)) ])

let post_run_end (cfg : C.t) (r : Report.t) =
  match cfg.C.events with
  | None -> ()
  | Some s ->
    (* Final totals are jobs-invariant for systematic searches that ran to a
       verdict; a budget/time stop cuts the tree at a nondeterministic point. *)
    let det =
      is_systematic cfg
      && (match r.Report.verdict with Report.Limits_reached -> false | _ -> true)
    in
    Obs.Events.post s ~shard:(-1) ~det ~kind:"run_end"
      (J.Obj
         [ ("verdict", J.Str (Report.verdict_key r.Report.verdict));
           ("executions", J.Int r.Report.stats.Report.executions);
           ("transitions", J.Int r.Report.stats.Report.transitions);
           ("probe_mass", J.Int r.Report.stats.Report.probe_mass) ])

(* Resuming with no budget left: the prior totals are already the answer. *)
let report_of_prior (cfg : C.t) (sq : Checkpoint.seq_state) =
  let analysis =
    if cfg.analyses = [] then None
    else
      Some
        { Report.lock_order_edges = sq.Checkpoint.sq_edges;
          potential_deadlock_cycles = AH.cycles sq.Checkpoint.sq_edges }
  in
  { Report.verdict = Report.Limits_reached;
    stats = sq.Checkpoint.sq_stats;
    metrics = sq.Checkpoint.sq_metrics;
    analysis }

let run ?resume cfg prog =
  match resume with
  | Some (sq : Checkpoint.seq_state)
    when remaining_budget cfg sq.Checkpoint.sq_stats.Report.executions <= 0 ->
    let r = report_of_prior cfg sq in
    post_run_start cfg prog;
    post_run_end cfg r;
    r
  | _ ->
    post_run_start cfg prog;
    let progress = progress_of_cfg cfg in
    let cfg_run, rng =
      match resume with
      | None -> (cfg, None)
      | Some sq ->
        ( adjust_budgets cfg sq.Checkpoint.sq_stats.Report.executions,
          Some (Rng.of_state sq.Checkpoint.sq_rng) )
    in
    (* The probe denominator comes from the *original* config: a resumed
       sampling session runs a shrunk budget, but its paths still weigh
       [1/original] in the cross-session probe mass. *)
    let st = make_state ?rng ?progress ~probe_denom:(default_probe_denom cfg) cfg_run prog in
    (match resume with
     | None -> ()
     | Some sq ->
       (* Rebuild the DFS stack at the recorded path boundary: replaying the
          [chosen] decision of each frame reaches exactly the next
          unexplored path, as if the backtrack had just happened here. *)
       let alt_of (d : Checkpoint.decision) =
         { tid = d.Checkpoint.c_tid; alt = d.Checkpoint.c_alt; cost = d.Checkpoint.c_cost }
       in
       Array.iter
         (fun (fr : Checkpoint.frame) ->
           let width = fr.Checkpoint.c_width in
           push_frame st
             { chosen = alt_of fr.Checkpoint.c_chosen;
               rest = List.map alt_of fr.Checkpoint.c_rest;
               sleep = fr.Checkpoint.c_sleep;
               width;
               cum = Obs.Estimator.descend (top_weight st) width;
               snap = None })
         sq.Checkpoint.sq_frames;
       (* Preload coverage so the union across sessions matches the
          uninterrupted run (recording is idempotent). *)
       if cfg.C.coverage then
         List.iter (fun s -> Hashtbl.replace st.states s ()) sq.Checkpoint.sq_states;
       st.prior <-
         Some
           { pr_stats = sq.Checkpoint.sq_stats;
             pr_metrics = sq.Checkpoint.sq_metrics;
             pr_edges = sq.Checkpoint.sq_edges });
    (match cfg.C.checkpoint with
     | None -> ()
     | Some path ->
       st.ckpt <-
         Some
           { ck_path = path;
             ck_interval = cfg.C.checkpoint_interval;
             ck_last = Obs.Clock.now ();
             ck_boundary = None });
    let report = run_loop st in
    (match progress with None -> () | Some p -> Obs.Progress.force p (progress_sample st));
    post_run_end cfg report;
    report

(* One shard of a parallel search: either a sampling worker (custom [rng]
   stream, sharded budget already folded into [cfg]) or a systematic work
   item (locked [prefix]). Returns the coverage table alongside the report so
   the supervisor can union tables rather than summing cardinalities. *)
let run_shard ?deadline ?rng ?prefix ?budget ?probe_denom ?shard ?progress cfg prog =
  let st =
    make_state ?deadline ?rng ?prefix ?budget ?probe_denom ?shard ?progress cfg prog
  in
  (run_loop st, st.states)

(* Sequentially expand the systematic decision tree, cutting every path at
   [split_depth] fresh decisions. Each resulting prefix — whether it is an
   internal node (P_frontier) or a complete shallow path — is one work item,
   re-executed from the initial state by a worker; the expansion itself
   records no statistics, so the merged worker stats match the sequential
   search exactly. Items are returned in DFS order. *)
let expand ?deadline cfg prog ~split_depth =
  let st =
    make_state ?deadline ~frontier_at:(max 1 split_depth)
      (* Analyses are stripped too: workers re-execute every item, so
         expansion-time observation would double-count and make analysis
         results depend on the shard layout. *)
      { cfg with
        C.coverage = false;
        metrics = false;
        progress = false;
        on_progress = None;
        events = None;
        analyses = [] }
      prog
  in
  if not (is_systematic cfg) then invalid_arg "Search.expand: sampling mode";
  let random_tail_active =
    (not cfg.C.fair) && cfg.C.depth_bound <> None && cfg.C.random_tail
  in
  let items = ref [] in
  let timed_out = ref false in
  let continue_ = ref true in
  with_run st (fun () ->
    while !continue_ do
      if stopped st then begin
        timed_out := true;
        continue_ := false
      end
      else begin
        let outcome, _ = execute_path st ~systematic:true in
        let prefix =
          Array.init st.nframes (fun i ->
              let fr = st.frames.(i) in
              { p_tid = fr.chosen.tid;
                p_alt = fr.chosen.alt;
                p_cost = fr.chosen.cost;
                p_sleep = fr.sleep;
                p_width = fr.width })
        in
        items := prefix :: !items;
        match outcome with
        | (P_safety _ | P_deadlock | P_divergence _) when not random_tail_active ->
          (* Deterministic error below the split depth: the sequential DFS can
             never get past it, so later units are unreachable. (With a random
             tail the worker's re-roll may differ, so keep enumerating.) *)
          continue_ := false
        | P_stopped ->
          timed_out := true;
          continue_ := false
        | _ -> if not (backtrack st) then continue_ := false
      end
    done);
  (List.rev !items, !timed_out)

type replay_outcome =
  | Replayed_failure of Report.counterexample
  | Replayed_no_failure
  | Replay_mismatch of { step : int; tid : int }

let replay prog decisions callback =
  let run = Engine.start prog in
  Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
  (* First decision that could not be applied (its thread had nothing
     pending or was disabled): the schedule does not fit this program, e.g.
     a stale repro file after the program changed. *)
  let mismatch = ref None in
  List.iteri
    (fun i (tid, alt) ->
      if !mismatch = None && Engine.failure run = None then begin
        match Engine.pending run tid with
        | Some _ when B.mem tid (Engine.enabled_set run) ->
          Engine.step run ~tid ~alt;
          callback run
        | _ -> mismatch := Some (i, tid)
      end)
    decisions;
  match Engine.failure run with
  | Some _ ->
    let names = Objects.pp_obj (Engine.store run) in
    let rendered = Format.asprintf "@[<v>%a@]" (Trace.pp ?tail:None ~names) (Engine.trace run) in
    Replayed_failure { Report.rendered; decisions; length = Trace.length (Engine.trace run) }
  | None ->
    (match !mismatch with
     | Some (step, tid) -> Replay_mismatch { step; tid }
     | None -> Replayed_no_failure)
