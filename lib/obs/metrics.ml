module Json = Fairmc_util.Json

let n_buckets = 63  (* log2 buckets over non-negative ints *)

type counter = { c_name : string; mutable c : int }
type gauge = { g_name : string; mutable g : int }

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

type t = { mutable items : instrument list }

let create () = { items = [] }

let name_of = function
  | I_counter c -> c.c_name
  | I_gauge g -> g.g_name
  | I_histogram h -> h.h_name

let find_instr t name = List.find_opt (fun i -> name_of i = name) t.items

let counter t name =
  match find_instr t name with
  | Some (I_counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered with another kind")
  | None ->
    let c = { c_name = name; c = 0 } in
    t.items <- I_counter c :: t.items;
    c

let gauge t name =
  match find_instr t name with
  | Some (I_gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered with another kind")
  | None ->
    let g = { g_name = name; g = 0 } in
    t.items <- I_gauge g :: t.items;
    g

let histogram t name =
  match find_instr t name with
  | Some (I_histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered with another kind")
  | None ->
    let h =
      { h_name = name; h_buckets = Array.make n_buckets 0; h_count = 0; h_sum = 0; h_max = 0 }
    in
    t.items <- I_histogram h :: t.items;
    h

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v

(* Bucket 0 holds v = 0; bucket b >= 1 holds 2^(b-1) <= v < 2^b. *)
let observe h v =
  let v = max 0 v in
  let b =
    if v = 0 then 0
    else begin
      let rec log2 acc v = if v = 0 then acc else log2 (acc + 1) (v lsr 1) in
      log2 0 v  (* v in [2^(b-1), 2^b) gets bucket b *)
    end
  in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

module Snapshot = struct
  type hist = { count : int; sum : int; max : int; buckets : (int * int) list }

  type entry =
    | Counter of int
    | Gauge of int
    | Histogram of hist

  type t = (string * entry) list  (* sorted by name *)

  let empty = []
  let is_empty t = t = []
  let entries t = t
  let counters t = List.filter_map (function n, Counter v -> Some (n, v) | _ -> None) t
  let find t name = List.assoc_opt name t

  let merge_entry name a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (max x y)
    | Histogram x, Histogram y ->
      let rec merge_buckets xs ys =
        match (xs, ys) with
        | [], r | r, [] -> r
        | (i, n) :: xs', (j, m) :: ys' ->
          if i = j then (i, n + m) :: merge_buckets xs' ys'
          else if i < j then (i, n) :: merge_buckets xs' ys
          else (j, m) :: merge_buckets xs ys'
      in
      Histogram
        { count = x.count + y.count;
          sum = x.sum + y.sum;
          max = max x.max y.max;
          buckets = merge_buckets x.buckets y.buckets }
    | _ -> invalid_arg ("Metrics.Snapshot.merge: kind mismatch for " ^ name)

  let rec merge a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (n1, e1) :: a', (n2, e2) :: b' ->
      let c = String.compare n1 n2 in
      if c = 0 then (n1, merge_entry n1 e1 e2) :: merge a' b'
      else if c < 0 then (n1, e1) :: merge a' b
      else (n2, e2) :: merge a b'

  let with_entry t name e =
    merge (List.remove_assoc name t) [ (name, e) ]

  let with_counter t name v = with_entry t name (Counter v)
  let with_gauge t name v = with_entry t name (Gauge v)

  (* Sort [l] by name and merge it into [t] in one pass, [l]'s entries
     replacing [t]'s. *)
  let with_entries t l =
    let rec override a b =
      match (a, b) with
      | [], r | r, [] -> r
      | ((n1, _) as x) :: a', ((n2, _) as y) :: b' ->
        let c = String.compare n1 n2 in
        if c = 0 then y :: override a' b'
        else if c < 0 then x :: override a' b
        else y :: override a b'
    in
    override t (List.sort (fun (a, _) (b, _) -> String.compare a b) l)

  let of_entries l =
    List.fold_left (fun acc (name, e) -> with_entry acc name e) empty l

  let hist_to_json (h : hist) =
    Json.Obj
      [ ("count", Json.Int h.count);
        ("sum", Json.Int h.sum);
        ("max", Json.Int h.max);
        ("buckets", Json.Obj (List.map (fun (i, n) -> (string_of_int i, Json.Int n)) h.buckets)) ]

  let to_json t =
    Json.Obj
      (List.map
         (fun (name, e) ->
           ( name,
             match e with
             | Counter v | Gauge v -> Json.Int v
             | Histogram h -> hist_to_json h ))
         t)

  let pp ppf t =
    Format.pp_open_vbox ppf 0;
    List.iteri
      (fun i (name, e) ->
        if i > 0 then Format.pp_print_cut ppf ();
        match e with
        | Counter v -> Format.fprintf ppf "%-40s %d" name v
        | Gauge v -> Format.fprintf ppf "%-40s %d (gauge)" name v
        | Histogram h ->
          Format.fprintf ppf "%-40s count=%d sum=%d max=%d mean=%.1f" name h.count h.sum
            h.max
            (if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count))
      t;
    Format.pp_close_box ppf ()
end

let mirror t =
  { items =
      List.map
        (function
          | I_counter c -> I_counter { c with c = c.c }
          | I_gauge g -> I_gauge { g with g = g.g }
          | I_histogram h -> I_histogram { h with h_buckets = Array.copy h.h_buckets })
        t.items }

let blit ~src ~dst =
  List.iter2
    (fun s d ->
      match (s, d) with
      | I_counter a, I_counter b -> b.c <- a.c
      | I_gauge a, I_gauge b -> b.g <- a.g
      | I_histogram a, I_histogram b ->
        Array.blit a.h_buckets 0 b.h_buckets 0 n_buckets;
        b.h_count <- a.h_count;
        b.h_sum <- a.h_sum;
        b.h_max <- a.h_max
      | _ -> invalid_arg "Metrics.blit: not a mirror")
    src.items dst.items

let snapshot t =
  t.items
  |> List.map (fun i ->
         ( name_of i,
           match i with
           | I_counter c -> Snapshot.Counter c.c
           | I_gauge g -> Snapshot.Gauge g.g
           | I_histogram h ->
             let buckets = ref [] in
             for b = n_buckets - 1 downto 0 do
               if h.h_buckets.(b) > 0 then buckets := (b, h.h_buckets.(b)) :: !buckets
             done;
             Snapshot.Histogram
               { Snapshot.count = h.h_count; sum = h.h_sum; max = h.h_max; buckets = !buckets } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
