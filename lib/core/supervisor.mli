(** The parallel executor: a supervised pool of forked worker processes.

    Stateless model checking re-executes the program from its initial state
    for every schedule, so executions are independent and the schedule space
    shards into work items:

    - {b Systematic modes} (DFS, context-bounded): the decision tree is
      expanded sequentially to [config.split_depth] ({!Search.expand}) and
      each prefix becomes one work item. The merged report is {e exactly}
      the sequential one — same verdict, counterexample and
      execution/transition/coverage counts — independent of the pool size
      and of timing: errors resolve by the lowest item index in DFS order.
    - {b Sampling modes} (random walk, random priorities): one item per
      shard, with its share of the sample budget and its own RNG stream
      split off [config.seed]. The verdict and counterexample are
      reproducible for a fixed (seed, jobs) pair; statistics of shards
      above the winning one may vary between runs.

    Both kinds run in forked worker {e processes} speaking the {!Worker}
    pipe protocol, so a worker that segfaults, is OOM-killed or wedges costs
    one work-item attempt instead of the whole search. Policies:

    - {b Timeouts}: [config.item_timeout] bounds each attempt's wall clock;
      on expiry the worker is SIGKILLed and the item requeued. The child's
      own deadline comes only from the remaining global [time_limit] — a
      slow but healthy item is the parent's SIGKILL decision, never a
      spurious [Limits_reached].
    - {b Retries}: a crashed/timed-out/garbled attempt is requeued with
      exponential backoff and deterministic jitter (a pure function of
      (seed, item, attempt)), at most [config.max_retries] times.
    - {b Quarantine}: an item that exhausts its retry budget becomes a
      {!Report.Crash} verdict whose counterexample is the item's schedule
      prefix (empty for a sampling shard).
    - {b Budgets}: [time_limit] is one absolute deadline for the whole run;
      [max_executions] is one {!Search.Budget} shared with the workers, so
      a budgeted run executes at most [max_executions + jobs] paths. When
      every worker slot dies unrecoverably mid-run, the remaining items
      finish in-process.
    - {b Checkpoints}: systematic runs record every fully explored item in
      a [fairmc-ckpt/1] Par payload; sampling runs record their aggregate
      once per session (Par_sampling). A failed write warns on stderr,
      posts a [checkpoint_error] event and keeps the previous file.

    Deterministic fault injection ([config.inject_fault]) fires exactly
    once, on the first attempt of item [fault_seed mod n_items]; retries
    are fault-free, so injected faults leave the report unchanged (except
    with a zero retry budget, which surfaces the {!Report.Crash}). See
    DESIGN.md, "Parallel search and supervision". *)

val pool_size : Search_config.t -> int
(** [max jobs workers], each with [0] and negative values resolved to
    [Domain.recommended_domain_count ()]. *)

val can_fork : unit -> bool
(** Probe: fork a trivial child and reap it. [false] on Windows and in a
    process that has created a domain (OCaml 5 then forbids fork). *)

val run : ?resume:Checkpoint.payload -> Search_config.t -> Program.t -> Report.t
(** Run the configured search. With [pool_size config <= 1] (and for
    round-robin, a single schedule) this is {!Search.run}; otherwise the
    worker pool runs it.

    [resume] continues a prior checkpointed session (see {!Checkpoint} and
    DESIGN.md, "Durable sessions"). The payload kind must fit the run shape:
    [Seq] for sequential runs, [Par] for parallel systematic, [Par_sampling]
    for parallel sampling — a mismatch (e.g. a checkpoint written with a
    different [jobs] regime, or split-depth/item-count drift) raises
    {!Checkpoint.Mismatch}. *)
