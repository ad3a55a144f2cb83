type _ Effect.t += Sched : Op.t -> int Effect.t

exception Assertion_failure of string

type ctx = {
  mutable store : Objects.t option;
  mutable in_thread : bool;
  mutable current_tid : int;
  mutable spawn_body : (unit -> unit) option;
  mutable spawn_result : int;
  mutable snapshotters : (Fairmc_util.Fnv.t -> Fairmc_util.Fnv.t) list;
  regions : (int, int) Hashtbl.t;
}

(* One context per process: parallel search runs its workers as forked
   processes, so exactly one of {engine, one thread} executes at any
   instant. *)
let the_ctx =
  { store = None;
    in_thread = false;
    current_tid = -1;
    spawn_body = None;
    spawn_result = -1;
    snapshotters = [];
    regions = Hashtbl.create 16 }

let ctx () = the_ctx

let get_store () =
  match (ctx ()).store with
  | Some s -> s
  | None -> failwith "Sync operation outside of a model-checked execution"

let reset s =
  let c = ctx () in
  c.store <- Some s;
  c.in_thread <- false;
  c.current_tid <- -1;
  c.spawn_body <- None;
  c.spawn_result <- -1;
  c.snapshotters <- [];
  Hashtbl.reset c.regions;
  c
