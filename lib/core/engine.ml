module B = Fairmc_util.Bitset
module Fnv = Fairmc_util.Fnv

type failure =
  | Assertion of string
  | Sync_misuse of string
  | Resource of string
  | Uncaught of string

let pp_failure ppf = function
  | Assertion m -> Format.fprintf ppf "assertion failure: %s" m
  | Sync_misuse m -> Format.fprintf ppf "synchronization misuse: %s" m
  | Resource m -> Format.fprintf ppf "resource exhaustion: %s" m
  | Uncaught m -> Format.fprintf ppf "uncaught exception: %s" m

(* Stack_overflow/Out_of_memory raised by a thread body must become an error
   verdict carrying the offending schedule, not kill the whole search (or a
   supervised worker). They need their own arm: the generic [Uncaught]
   rendering of [Printexc.to_string] is fine, but classifying them lets
   callers distinguish a program bug from a workload that genuinely needs
   more resources. *)
let resource_failure = function
  | Stack_overflow -> Some (Resource "stack overflow")
  | Out_of_memory -> Some (Resource "out of memory")
  | _ -> None

type parked = {
  op : Op.t;
  k : (int, unit) Effect.Deep.continuation;
  payload : (unit -> unit) option;  (* body captured at a [Spawn] park *)
}

type tstate =
  | Parked of parked  (* a native thread's fiber, parked on its pending op *)
  | Ready of Op.t  (* a machine thread, parked on its pending op *)
  | Running  (* transient, while the thread runs to its next park *)
  | Finished

type observer = tid:int -> op:Op.t -> result:int -> unit

type t = {
  prog_store : Objects.t;
  obs : observer option;
  mutable threads : tstate array;
  mutable prev_op : Op.t option array;
  mutable op_repeat : int array;
      (* Control abstraction for state signatures: the pending operation
         alone does not identify a thread's control point when two identical
         operations are adjacent (e.g. two reads of the same variable), which
         would merge a state with its own successor and cut off stateful
         exploration. Counting consecutive identical pending operations
         restores (enough) injectivity; loops whose bodies contain more than
         one distinct operation still converge. *)
  mutable nthreads : int;
  mutable failure : (int * failure) option;
  trace : Trace.t;
  mutable steps : int;
  snapshot : (unit -> Fnv.t) option;
  snapshotters : (Fnv.t -> Fnv.t) list;
  machine : Program.machine option;
  saver : Program.saver option;
      (* [None] also when an observer is installed or a thread is native *)
  mutable sync_ops : int;
  mutable var_ops : int;
  op_counts : int array;  (* transitions by Op.kind_index *)
  mutable context_switches : int;
  mutable last_stepped : int;  (* tid of the previous transition; -1 at boot *)
  mutable es : B.t;
      (* enabled set of the current state: it only changes when a transition
         runs, so it is computed once per state, at the end of [start],
         [step] and [rewind] *)
  mutable live : bool;
}

(* The active run of this process (parallel search forks a process per
   worker, so there is never more than one engine to track). *)
let active : t option ref = ref None

(* The step observer: the search layer installs it around a whole search,
   every [start] captures the current value into the run, and [step] pays
   one immediate branch when it is unset (the zero-cost-when-off contract of
   the obs layer). *)
let observer : observer option ref = ref None

let set_observer f = observer := f

let record_failure t tid f = if t.failure = None then t.failure <- Some (tid, f)

(* Saturate the counter: straight-line runs of identical operations are
   short (that is all the disambiguation needs), while an unbounded counter
   would make single-operation spin loops produce infinitely many
   signatures, breaking cycle detection. *)
let note_park t tid op =
  (match t.prev_op.(tid) with
   | Some prev when Op.equal prev op -> t.op_repeat.(tid) <- min (t.op_repeat.(tid) + 1) 4
   | Some _ | None -> t.op_repeat.(tid) <- 0);
  t.prev_op.(tid) <- Some op

let record_exn t tid = function
  | Runtime.Assertion_failure m -> record_failure t tid (Assertion m)
  | Objects.Sync_error m -> record_failure t tid (Sync_misuse m)
  | e ->
    record_failure t tid
      (match resource_failure e with Some f -> f | None -> Uncaught (Printexc.to_string e))

(* Run [body] as native thread [tid] until its first scheduling point (or
   completion). The deep handler stays installed for the thread's lifetime:
   subsequent parks happen during [Effect.Deep.continue] in [step]. *)
let start_thread t tid body =
  let handler : (unit, unit) Effect.Deep.handler =
    { retc = (fun () -> t.threads.(tid) <- Finished);
      exnc =
        (fun exn ->
          t.threads.(tid) <- Finished;
          record_exn t tid exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Runtime.Sched op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let payload =
                  match op with
                  | Op.Spawn ->
                    let c = Runtime.ctx () in
                    let b = c.spawn_body in
                    c.spawn_body <- None;
                    b
                  | _ -> None
                in
                note_park t tid op;
                t.threads.(tid) <- Parked { op; k; payload })
          | _ -> None) }
  in
  let c = Runtime.ctx () in
  let saved_tid = c.current_tid in
  let saved_in = c.in_thread in
  c.current_tid <- tid;
  c.in_thread <- true;
  Effect.Deep.match_with body () handler;
  c.current_tid <- saved_tid;
  c.in_thread <- saved_in

(* Run machine thread [tid] to its next scheduling point, delivering
   [result] to its pending operation: a plain call, no fiber. Exceptions
   become failures exactly as a fiber's [exnc] maps them. *)
let run_machine t (m : Program.machine) tid result =
  match m.Program.run tid result with
  | Some op ->
    note_park t tid op;
    t.threads.(tid) <- Ready op
  | None -> t.threads.(tid) <- Finished
  | exception e ->
    t.threads.(tid) <- Finished;
    record_exn t tid e

(* Allocate the next tid, in state [Running] until its first park. *)
let new_thread t =
  if t.nthreads > B.max_capacity then failwith "Engine: too many threads";
  if t.nthreads = Array.length t.threads then begin
    let a = Array.make (2 * t.nthreads) Finished in
    Array.blit t.threads 0 a 0 t.nthreads;
    t.threads <- a;
    let p = Array.make (2 * t.nthreads) None in
    Array.blit t.prev_op 0 p 0 t.nthreads;
    t.prev_op <- p;
    let rep = Array.make (2 * t.nthreads) 0 in
    Array.blit t.op_repeat 0 rep 0 t.nthreads;
    t.op_repeat <- rep
  end;
  let tid = t.nthreads in
  t.threads.(tid) <- Running;
  t.nthreads <- tid + 1;
  tid

let add_thread t body =
  let tid = new_thread t in
  start_thread t tid body;
  tid

(* A join target outside the allocated range is treated as not finished:
   tids are dense and may be created later by spawns, so joining one that
   never materializes is a deadlock, not a no-op. *)
let finished t tid = tid >= 0 && tid < t.nthreads && t.threads.(tid) = Finished

(* [Join] waits on a thread, not on an object: decided here. *)
let enabled t tid =
  match t.threads.(tid) with
  | Parked { op = Join j; _ } | Ready (Join j) -> finished t j
  | Parked { op; _ } | Ready op -> Objects.enabled t.prog_store op
  | Running | Finished -> false

let refresh_enabled t =
  let rec go tid acc =
    if tid >= t.nthreads then acc
    else go (tid + 1) (if enabled t tid then B.add tid acc else acc)
  in
  t.es <- go 0 B.empty

let start (prog : Program.t) =
  (match !active with
   | Some prev when prev.live ->
     (* A previous run that was not [stop]ped; take over, runs do not
        nest. *)
     prev.live <- false
   | _ -> ());
  let store = Objects.create () in
  let c = Runtime.reset store in
  let booted = prog.Program.boot () in
  let obs = !observer in
  let t =
    { prog_store = store;
      obs;
      threads = Array.make 8 Finished;
      prev_op = Array.make 8 None;
      op_repeat = Array.make 8 0;
      nthreads = 0;
      failure = None;
      trace = Trace.create ();
      steps = 0;
      snapshot = booted.Program.snapshot;
      snapshotters = c.snapshotters;
      machine = booted.Program.machine;
      saver =
        (* An observer (dynamic analysis) keeps per-execution state of its
           own, and Svar snapshotters hash user state the saver cannot see:
           both need the run re-executed. So do native threads, whose
           continuations are one-shot. *)
        (match (obs, c.snapshotters, booted.Program.threads, booted.Program.machine) with
         | None, [], [], Some _ -> booted.Program.saver
         | _ -> None);
      sync_ops = 0;
      var_ops = 0;
      op_counts = Array.make Op.n_kinds 0;
      context_switches = 0;
      last_stepped = -1;
      es = B.empty;
      live = true }
  in
  active := Some t;
  (match booted.Program.machine with
   | Some m ->
     for _ = 1 to m.Program.count do
       run_machine t m (new_thread t) 0
     done
   | None -> ());
  List.iter (fun body -> ignore (add_thread t body)) booted.Program.threads;
  refresh_enabled t;
  t

let nthreads t = t.nthreads
let steps t = t.steps

let pending t tid =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Engine.pending";
  match t.threads.(tid) with
  | Parked { op; _ } | Ready op -> Some op
  | Running | Finished -> None

let enabled_set t = t.es

let would_yield t tid =
  match t.threads.(tid) with
  | Parked { op; _ } | Ready op -> Objects.would_yield t.prog_store op
  | Running | Finished -> false

let alternatives t tid =
  match t.threads.(tid) with
  | Parked { op; _ } | Ready op -> Op.alternatives op
  | Running | Finished -> 1

let count_op t tid (op : Op.t) =
  (match op with
   | Var_read _ | Var_write _ | Var_rmw _ -> t.var_ops <- t.var_ops + 1
   | Choose _ -> ()
   | _ -> t.sync_ops <- t.sync_ops + 1);
  let k = Op.kind_index op in
  t.op_counts.(k) <- t.op_counts.(k) + 1;
  if t.last_stepped >= 0 && t.last_stepped <> tid then
    t.context_switches <- t.context_switches + 1;
  t.last_stepped <- tid

let step t ~tid ~alt =
  if t.failure <> None then invalid_arg "Engine.step: execution already failed";
  let st = t.threads.(tid) in
  let op =
    match st with
    | Parked { op; _ } | Ready op -> op
    | Running | Finished -> invalid_arg "Engine.step: thread not parked"
  in
  if not (B.mem tid t.es) then invalid_arg "Engine.step: thread not enabled";
  let yielded = Objects.would_yield t.prog_store op in
  let result =
    match op with
    | Op.Spawn ->
      let body =
        match st with
        | Parked { payload = Some b; _ } -> b
        | _ -> failwith "Engine: spawn without a body"
      in
      let child = add_thread t body in
      (Runtime.ctx ()).spawn_result <- child;
      1
    | Op.Choose n ->
      if alt < 0 || alt >= n then invalid_arg "Engine.step: bad alternative";
      alt
    | op ->
      (match Objects.execute t.prog_store ~self:tid op with
       | true -> 1
       | false -> 0
       | exception Objects.Sync_error m ->
         record_failure t tid (Sync_misuse m);
         0
       | exception ((Stack_overflow | Out_of_memory) as e) ->
         record_failure t tid (Option.get (resource_failure e));
         0)
  in
  count_op t tid op;
  Trace.push t.trace
    { Trace.step = t.steps; tid; op; alt; result = result <> 0; yielded; enabled = t.es };
  t.steps <- t.steps + 1;
  (match t.obs with
   | None -> ()
   | Some f ->
     (* After [Trace.push]: an observer that snapshots the trace here sees
        the schedule up to and including this transition. [Spawn] reports
        the child tid, [Choose] the chosen alternative, try/timed ops 0/1. *)
     let result = match op with Op.Spawn -> (Runtime.ctx ()).spawn_result | _ -> result in
     f ~tid ~op ~result);
  (if t.failure = None then
     match st with
     | Ready _ -> run_machine t (Option.get t.machine) tid result
     | Parked p ->
       t.threads.(tid) <- Running;
       let c = Runtime.ctx () in
       let saved_tid = c.current_tid in
       let saved_in = c.in_thread in
       c.current_tid <- tid;
       c.in_thread <- true;
       Effect.Deep.continue p.k result;
       c.current_tid <- saved_tid;
       c.in_thread <- saved_in
     | Running | Finished -> assert false);
  refresh_enabled t

let failure t = t.failure

let all_finished t =
  let rec go tid = tid >= t.nthreads || (t.threads.(tid) = Finished && go (tid + 1)) in
  go 0

let deadlocked t =
  (not (all_finished t)) && B.is_empty (enabled_set t) && t.failure = None

let trace t = t.trace
let store t = t.prog_store

let state_signature t =
  let regions = (Runtime.ctx ()).regions in
  let h = Objects.signature t.prog_store Fnv.init in
  let h = ref (Fnv.int h t.nthreads) in
  for tid = 0 to t.nthreads - 1 do
    (match t.threads.(tid) with
     | Finished -> h := Fnv.int !h (-1)
     | Running -> h := Fnv.int !h (-2)
     | Parked { op; _ } | Ready op ->
       h := Fnv.string (Fnv.int !h tid) (Op.to_string op);
       h := Fnv.int !h t.op_repeat.(tid);
       h := Fnv.int !h (Option.value ~default:0 (Hashtbl.find_opt regions tid)))
  done;
  let h = List.fold_left (fun acc f -> f acc) !h t.snapshotters in
  match t.snapshot with None -> h | Some f -> Fnv.int h (Int64.to_int (f ()))

(* One flat array, so a snapshot is a single cheap block: the step count,
   the object count, then the object states, each thread's op-repeat counter
   and the program's state. Only machine programs are saved, so the thread
   count never changes. *)
type saved = int array

let saveable t = Option.is_some t.saver

let save t =
  match t.saver with
  | None -> invalid_arg "Engine.save: run cannot be saved"
  | Some s ->
    if t.failure <> None then invalid_arg "Engine.save: execution already failed";
    if Hashtbl.length (Runtime.ctx ()).regions > 0 then
      invalid_arg "Engine.save: program uses Sync.at regions";
    let n = t.nthreads and nobj = Objects.length t.prog_store in
    let sv = Array.make (2 + nobj + n + s.Program.words) 0 in
    sv.(0) <- t.steps;
    sv.(1) <- nobj;
    Objects.save t.prog_store sv 2;
    Array.blit t.op_repeat 0 sv (2 + nobj) n;
    s.Program.capture sv (2 + nobj + n);
    sv

let rewind t sv =
  let s, m =
    match (t.saver, t.machine) with
    | Some s, Some m -> (s, m)
    | _ -> invalid_arg "Engine.rewind: run cannot be saved"
  in
  if not t.live then invalid_arg "Engine.rewind: run was stopped or taken over";
  let steps = sv.(0) and nobj = sv.(1) and n = t.nthreads in
  if steps > t.steps then invalid_arg "Engine.rewind: not a prefix of this run";
  (* The per-run counters are sums over transitions: take the dropped
     suffix back out of them instead of saving them. *)
  for i = t.steps - 1 downto steps do
    let e = Trace.get t.trace i in
    (match e.Trace.op with
     | Var_read _ | Var_write _ | Var_rmw _ -> t.var_ops <- t.var_ops - 1
     | Choose _ -> ()
     | _ -> t.sync_ops <- t.sync_ops - 1);
    let k = Op.kind_index e.Trace.op in
    t.op_counts.(k) <- t.op_counts.(k) - 1;
    if i > 0 && (Trace.get t.trace (i - 1)).Trace.tid <> e.Trace.tid then
      t.context_switches <- t.context_switches - 1
  done;
  t.last_stepped <- (if steps = 0 then -1 else (Trace.get t.trace (steps - 1)).Trace.tid);
  Trace.truncate t.trace steps;
  t.steps <- steps;
  t.failure <- None;
  Objects.restore t.prog_store sv 2 nobj;
  (* Machine threads are plain state: writing their arrays back puts each
     one on its saved pending operation. *)
  s.Program.restore sv (2 + nobj + n);
  for tid = 0 to n - 1 do
    t.threads.(tid) <-
      (match m.Program.pending tid with
       | Some op ->
         t.prev_op.(tid) <- Some op;
         Ready op
       | None -> Finished)
  done;
  Array.blit sv (2 + nobj) t.op_repeat 0 n;
  refresh_enabled t

let sync_ops t = t.sync_ops
let var_ops t = t.var_ops
let op_counts t = t.op_counts
let context_switches t = t.context_switches

let stop t =
  t.live <- false;
  match !active with
  | Some a when a == t -> active := None
  | _ -> ()
