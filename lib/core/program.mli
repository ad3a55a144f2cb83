(** Programs under test.

    A program is a recipe for (re-)creating its initial state: [boot] is
    called whenever an execution starts from the initial state, allocates every synchronization object and all
    user data fresh, and returns the bodies of the initial threads. Thread
    bodies interact with the scheduler exclusively through {!Sync}. This is
    the stateless-model-checking contract: re-running [boot] must produce an
    identical initial state, and thread bodies must be deterministic apart
    from scheduling and explicit [Sync.choose] operations.

    A program may also offer a {!saver}: then the search saves the run at
    the decision points it will come back to and rewinds to them instead of
    re-running [boot]. Programs without one (native OCaml workloads, whose
    continuations are one-shot) are re-executed: [boot] again, then the
    prefix decisions through the engine alone, while the search restores its
    own state from the decision point. A program whose re-execution does not
    reach the recorded state (its enabled set differs) fails the search. *)

type saver = {
  words : int;  (** size of the saved state *)
  capture : int array -> int -> unit;
      (** [capture buf off] writes the program's whole user state at a
          scheduling point into [buf.(off) .. buf.(off + words - 1)], in a
          layout the program alone interprets. Called only while every live
          thread is parked. *)
  resume : int array -> int -> int -> unit -> unit;
      (** [resume buf off] restores the user state [capture buf off] wrote
          and returns, for each thread parked at that point, a fresh body that
          re-performs the thread's pending operation and then carries on
          exactly as the parked thread would have. The engine restores the
          synchronization objects and scheduling state itself; a program
          with a saver must keep nothing else: no {!Svar}s and no
          [Sync.at] regions. *)
}

type booted = {
  threads : (unit -> unit) list;
      (** Initial threads, in thread-id order starting at 0. More threads may
          be created during execution with [Sync.spawn]. *)
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
      (** Optional user-supplied state abstraction, combined by the engine
          with the generic scheduling state to form state signatures for
          coverage measurement (paper §4.2.1 did this manually for two
          programs; programs written in ChessLang get it for free). *)
  saver : saver option;  (** [None]: the run cannot be saved, only re-executed *)
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
