(** The state-space explorer.

    Drives {!Engine} executions according to a {!Search_config}: systematic
    modes (DFS, context-bounded) enumerate scheduling decisions depth-first.
    A backtrack rewinds the run to the state saved at the frame it returns
    to, when the program can be saved ({!Program.saver}: ChessLang on the
    VM, whose threads are machines, without dynamic analyses); otherwise the new path re-executes the
    program from its initial state, stepping the decision prefix through
    the engine alone while the search restores its own state from the
    frame. Reports are identical either way; a program whose re-execution
    does not reach the frame's state raises [Failure]. Sampling modes
    (random walk, round-robin, random-priority) run a fixed number of
    independent executions.

    When [config.fair] is set, scheduling decisions are restricted to the
    schedulable set [T] of Algorithm 1, computed by {!Fair_sched} along every
    path. Fair executions that exceed the livelock bound are reported as
    divergences and classified (good-samaritan violation vs. fair
    nontermination, the paper's outcomes 2 and 3). *)

val run : ?resume:Checkpoint.seq_state -> Search_config.t -> Program.t -> Report.t
(** Run the configured search. With [resume], continue a prior session from
    its checkpointed path boundary: the DFS stack, RNG state and coverage
    table are reloaded, budgets ([max_executions], sampling counts) are
    reduced by the prior session's executions, and the prior totals are
    folded back into the final report — an interrupted-then-resumed run
    reports the same verdict, counterexample and statistics as an
    uninterrupted one. When [config.checkpoint] is set, the search snapshots
    its state at every path boundary and writes the file at most every
    [checkpoint_interval] seconds, plus exactly once when it stops. *)

val good_samaritan_culprit : (int * int * bool) list -> int
(** Pick the culprit thread of a good-samaritan divergence from
    [(tid, times_scheduled, yielded)] entries of the tail window: threads
    that never yield dominate threads that do; more occurrences dominate
    fewer; the lowest tid breaks exact ties, making the classification
    independent of hash-table iteration order. Exposed for tests. *)

val state_hook : (int64 -> Engine.t -> unit) option ref
(** Debug/analysis hook invoked on every state recorded during coverage
    collection (signature + live run). Used by tests that cross-check
    stateless coverage against the stateful ground truth (sequential searches
    only — the hook is a plain global). *)

type replay_outcome =
  | Replayed_failure of Report.counterexample
      (** the schedule ends in a failure; re-rendered counterexample *)
  | Replayed_no_failure  (** applied fully, but no failure at the end *)
  | Replay_mismatch of { step : int; tid : int }
      (** decision [step] (0-based) could not be applied: thread [tid] had
          nothing pending or was disabled — the schedule does not fit this
          program (e.g. a stale repro file) *)

val replay : Program.t -> (int * int) list -> (Engine.t -> unit) -> replay_outcome
(** Re-execute a recorded schedule, invoking the callback after every
    transition. Used to confirm and inspect reported bugs; a mismatch is
    reported explicitly rather than silently truncating the replay. *)

(** {1 Parallel-search seam}

    The entry points below are consumed by {!Supervisor}; they are exposed
    here because the work-item representation is owned by the search (it is
    a snapshot of its DFS stack). *)

(** The execution budget ([config.max_executions]): the one place that
    decides whether another path may start. It holds one counter slot per
    worker; the budget is spent once the slots sum to the limit. A search
    checks {!spent} before every path and adds each completed path to its
    own slot, so [n] workers sharing a budget overshoot it by at most [n]
    paths. *)
module Budget : sig
  type t

  val create : ?shared:bool -> slots:int -> int -> t
  (** [create ~slots limit], all slots zero, viewing slot 0. With
      [~shared:true] the slots live in a [MAP_SHARED] page that processes
      forked afterwards share with the caller. *)

  val slot : t -> int -> t
  (** The same budget, viewing slot [i] (which {!add} writes to). *)

  val count : t -> int
  (** This view's slot. *)

  val add : t -> int -> unit
  (** Add to this view's slot (a negative amount takes work back). *)

  val spent : t -> bool
  (** The slots sum to at least the limit. *)
end

type pdecision = {
  p_tid : int;
  p_alt : int;
  p_cost : int;
  p_sleep : Fairmc_util.Bitset.t;
  p_width : int;
}
(** One locked scheduling decision of a systematic work item: the chosen
    (thread, alternative) pair, its context-switch cost (already charged
    against the preemption budget on replay), the sleep set the sequential
    DFS would carry when entering this child, and the branching factor of
    the node when it was first pushed ([p_width]) — workers fold prefix
    widths into their {!Fairmc_obs.Estimator} probe weights so the merged
    probe mass is bit-identical to the sequential search's. *)

val expand :
  ?deadline:float ->
  Search_config.t ->
  Program.t ->
  split_depth:int ->
  pdecision array list * bool
(** Sequentially expand the systematic decision tree, cutting every path
    after [split_depth] fresh decisions. Every explored prefix — an internal
    frontier node or a complete shallow path — is returned as one work item,
    in DFS order. The expansion records no statistics and no coverage:
    workers re-execute each item's prefix from the initial state, so their merged
    statistics equal the sequential search's exactly. The boolean is true if
    [deadline] cut the expansion short. Enumeration stops early after a work
    item whose shallow outcome is a deterministic error (the sequential
    search could never reach the later items). Raises [Invalid_argument] for
    sampling modes. *)

val progress_of_cfg : Search_config.t -> Fairmc_obs.Progress.t option
(** Build the progress reporter requested by the config ([progress] flag and
    [on_progress] callback), or [None] if neither is set. *)

val post_run_start : Search_config.t -> Program.t -> unit
(** Emit the coordinator [run_start] telemetry event (no-op without
    [config.events]). Its data excludes [jobs] and budgets so the
    deterministic event slice is jobs-invariant. *)

val post_run_end : Search_config.t -> Report.t -> unit
(** Emit the coordinator [run_end] telemetry event: verdict key plus final
    execution/transition/probe-mass totals. Deterministic for systematic
    searches that reached a verdict. *)

val run_shard :
  ?deadline:float ->
  ?rng:Fairmc_util.Rng.t ->
  ?prefix:pdecision array ->
  ?budget:Budget.t ->
  ?probe_denom:int ->
  ?shard:int ->
  ?progress:Fairmc_obs.Progress.t ->
  Search_config.t ->
  Program.t ->
  Report.t * (int64, unit) Hashtbl.t
(** One shard of a parallel search: a systematic work item (locked
    [prefix]; backtracking never leaves its subtree) or a sampling worker
    (private [rng] stream, budget pre-sharded in the config). [deadline]
    overrides the config's relative [time_limit] with an absolute timestamp
    shared by all shards. [budget] replaces the private budget built from
    [max_executions], so that all shards draw on one count (the caller
    views it at the shard's own slot). [probe_denom] is the {e original}
    (unsharded) sampling budget — shard configs carry shrunk budgets, and
    every sampled path must weigh [1/original]. [shard] tags the worker's
    telemetry events ([config.events]). Returns the report together with the
    shard's coverage table so the caller can union tables rather than sum
    cardinalities. *)
