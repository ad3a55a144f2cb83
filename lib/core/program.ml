type saver = {
  words : int;
  capture : int array -> int -> unit;
  resume : int array -> int -> int -> unit -> unit;
}

type booted = {
  threads : (unit -> unit) list;
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
  saver : saver option;
}

type t = { name : string; boot : unit -> booted; facts : Static_facts.t option }

let make ~name ?facts boot = { name; boot; facts }

let of_threads ~name ?snapshot boot =
  { name; boot = (fun () -> { threads = boot (); snapshot; saver = None }); facts = None }

let with_facts t facts = { t with facts = Some facts }
