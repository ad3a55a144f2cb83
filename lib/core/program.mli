(** Programs under test.

    A program is a recipe for (re-)creating its initial state: [boot] is
    called whenever an execution starts from the initial state, allocates every synchronization object and all
    user data fresh, and returns its initial threads. A thread is either a
    native body, which interacts with the scheduler exclusively through
    {!Sync} (the engine runs it as a fiber under an effect handler), or a
    {!machine} thread, an explicit-state machine the engine steps directly,
    with no fiber, continuation or effect. This is the
    stateless-model-checking contract: re-running [boot] must produce an
    identical initial state, and threads must be deterministic apart from
    scheduling and explicit [Sync.choose] operations.

    A program whose threads are all machine threads may also offer a
    {!saver}: then the search saves the run at the decision points it will
    come back to and rewinds to them instead of re-running [boot]. Other
    programs (native OCaml workloads, whose continuations are one-shot) are
    re-executed: [boot] again, then the prefix decisions through the engine
    alone, while the search restores its own state from the decision point.
    A program whose re-execution does not reach the recorded state (its
    enabled set differs) fails the search. *)

type machine = {
  count : int;  (** the machine threads, tids [0 .. count - 1] *)
  run : int -> int -> Op.t option;
      (** [run tid result] delivers [result] (the engine's reply to the
          thread's pending operation, as for {!Runtime.extension-Sched};
          ignored on the thread's first run) and runs the thread up to its
          next scheduling point: [Some op] parks it on [op], [None] means
          it finished. A runtime error raises as a native body would
          ([Sync.fail] for an assertion failure). Performs no effect. *)
  pending : int -> Op.t option;
      (** The operation a thread is parked on, [None] once it finished. *)
}

type saver = {
  words : int;  (** size of the saved state *)
  capture : int array -> int -> unit;
      (** [capture buf off] writes the program's whole user state at a
          scheduling point into [buf.(off) .. buf.(off + words - 1)], in a
          layout the program alone interprets. Called only while every live
          thread is parked. *)
  restore : int array -> int -> unit;
      (** [restore buf off] writes back the user state [capture buf off]
          saved, machine threads included; the engine then reads each
          thread's pending operation from {!machine.pending}. The engine
          restores the synchronization objects and scheduling state itself;
          a program with a saver must keep nothing else: no {!Svar}s and no
          [Sync.at] regions. *)
}

type booted = {
  threads : (unit -> unit) list;
      (** Initial native threads, in thread-id order after the machine
          threads. More may be created during execution with [Sync.spawn]. *)
  machine : machine option;  (** the machine threads, tids from 0 *)
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
      (** Optional user-supplied state abstraction, combined by the engine
          with the generic scheduling state to form state signatures for
          coverage measurement (paper §4.2.1 did this manually for two
          programs; programs written in ChessLang get it for free). *)
  saver : saver option;
      (** [None]: the run cannot be saved, only re-executed. Ignored unless
          every thread is a machine thread. *)
}

type t = {
  name : string;
  boot : unit -> booted;
  facts : Static_facts.t option;
      (** Static conflict facts, attached by the static-analysis layer
          (lib/static) for ChessLang programs; [None] for native
          workloads. When present, {!Search} feeds them to
          {!Indep.independent}. *)
}

val make : name:string -> ?facts:Static_facts.t -> (unit -> booted) -> t

val of_threads : name:string -> ?snapshot:(unit -> Fairmc_util.Fnv.t) -> (unit -> (unit -> unit) list) -> t
(** Convenience wrapper when boot only builds thread bodies. *)

val with_facts : t -> Static_facts.t -> t
