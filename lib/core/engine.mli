(** One controlled execution of a program.

    The engine is the stateless-model-checking substrate: it boots the
    program fresh, runs every thread inside an effect handler, and exposes
    the scheduler-facing view of the current state — the enabled set, each
    thread's pending operation, and [yield(t)]. The search layer (which owns
    the fair scheduler and the exploration strategy) decides which thread to
    [step] next. Backtracking rewinds the run in place to a state saved on
    the current path ({!save}, {!rewind}) when the program can be saved, and
    otherwise discards the run and starts a new one that replays the prefix.

    Exactly one run may be active per process (the engine keeps its ambient
    per-run context in module-level state); parallel search runs one engine
    in each forked worker process. A new [start] takes over from an
    un-[stop]ped predecessor — runs do not nest. *)

module B := Fairmc_util.Bitset

type failure =
  | Assertion of string  (** [Sync.check]/[Sync.fail] *)
  | Sync_misuse of string  (** unlock of an unheld mutex, kind confusion, ... *)
  | Resource of string
      (** [Stack_overflow]/[Out_of_memory] raised while stepping a thread —
          trapped into an error verdict with the offending schedule rather
          than tearing down the search *)
  | Uncaught of string  (** any other exception escaping a thread body *)

val pp_failure : Format.formatter -> failure -> unit

type t

type observer = tid:int -> op:Op.t -> result:int -> unit
(** One callback per executed transition: the stepped thread, its operation
    (object ids inside, see {!Op.obj_of}), and the semantic result — the
    child tid for [Spawn], the chosen alternative for [Choose], 0/1 success
    for try/timed operations, 1 otherwise. Invoked after the transition is
    recorded in the trace, so [Trace.decisions (trace t)] at that moment is
    a replayable schedule ending in the observed transition. *)

val set_observer : observer option -> unit
(** Install (or clear) the step observer. Captured by each subsequent
    {!start} for the lifetime of that run; when
    unset, stepping pays a single branch (zero-cost contract). The analysis
    layer ({!Search_config.analyses}) is the intended client. *)

val start : Program.t -> t
(** Boot the program: run [boot], create the initial threads, and advance
    each to its first scheduling point. *)

val nthreads : t -> int
val steps : t -> int

val enabled_set : t -> B.t
(** Threads whose pending operation is currently enabled. *)

val pending : t -> int -> Op.t option
(** Pending operation of a live thread; [None] once finished. *)

val would_yield : t -> int -> bool
(** [yield(t)] of the paper for the current state. *)

val alternatives : t -> int -> int
(** Branching factor of the thread's pending operation ([Choose]). *)

val step : t -> tid:int -> alt:int -> unit
(** Execute one transition of [tid] (which must be enabled): apply its
    pending operation and run it to its next scheduling point. Newly spawned
    threads are advanced to their first scheduling point as part of the
    transition. *)

val failure : t -> (int * failure) option
(** Safety violation encountered so far, with the offending thread. *)

val all_finished : t -> bool

val deadlocked : t -> bool
(** No thread is enabled, yet not all have finished. Under the fair scheduler
    this is a true deadlock (Theorem 3: the schedulable set is empty iff the
    enabled set is). *)

val trace : t -> Trace.t
val store : t -> Objects.t

val state_signature : t -> Fairmc_util.Fnv.t
(** Signature of the current state: sync-object state, per-thread control
    information (pending operation, consecutive-op counter, [Sync.at]
    region), registered [Svar] values, and the program's optional snapshot
    function. Used for coverage measurement and by the stateful ground-truth
    search. Must be called while the run is the active one (before any
    subsequent [start]). *)

val sync_ops : t -> int
(** Synchronization operations executed (Table 1 accounting: everything
    except shared-variable accesses and data choices). *)

val var_ops : t -> int

val op_counts : t -> int array
(** Transitions by operation kind, indexed by {!Op.kind_index}. Owned by the
    run — callers must not mutate it; read after the run ends (the search
    accumulates it into the metrics registry per path). *)

val context_switches : t -> int
(** Transitions whose thread differs from the previous transition's. *)

(** {1 Saving and rewinding} *)

type saved
(** A run's state between transitions, never modified once saved: the
    program's user state (via its {!Program.saver}), the object store,
    thread status, the per-thread control counters of {!state_signature},
    and the step count. The trace and the per-run counters are not copied: a
    rewind truncates them, since it only ever returns to a prefix of the
    run. *)

val saveable : t -> bool
(** The program offers a saver, no observer is installed and no {!Svar}
    contributes to the state signature. *)

val save : t -> saved
(** @raise Invalid_argument when not {!saveable} or the run has failed. *)

val rewind : t -> saved -> unit
(** Return the run to the state [save] recorded earlier on its current
    path, as if the transitions since had never been taken: the trace is
    truncated, {!op_counts}, {!sync_ops}, {!var_ops} and
    {!context_switches} drop the abandoned transitions, and every parked
    thread gets a fresh continuation at its pending operation. [saved] is
    not consumed; a run can be rewound to it any number of times. The run
    must still be live. *)

val stop : t -> unit
(** Mark the run as abandoned; parked continuations are dropped (they are
    garbage-collected; threads under test must not rely on finalizers). *)
