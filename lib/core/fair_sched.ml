module B = Fairmc_util.Bitset

type t = {
  n : int;
  k : int;
  p : B.t array;  (* p.(t) = { u | (t,u) ∈ P }: t runs only if all of p.(t) disabled *)
  e : B.t array;  (* E(t) *)
  d : B.t array;  (* D(t) *)
  s : B.t array;  (* S(t) *)
  yc : int array;  (* yields of t since its window sets were last reset (k-parameterization) *)
}

let fresh_window n = (B.empty, B.full n, B.full n)

let create ~nthreads ?(k = 1) () =
  if nthreads < 0 || nthreads > B.max_capacity then invalid_arg "Fair_sched.create";
  if k < 1 then invalid_arg "Fair_sched.create: k must be >= 1";
  let e = Array.make (max nthreads 1) B.empty
  and d = Array.make (max nthreads 1) B.empty
  and s = Array.make (max nthreads 1) B.empty in
  for t = 0 to nthreads - 1 do
    let et, dt, st = fresh_window nthreads in
    e.(t) <- et; d.(t) <- dt; s.(t) <- st
  done;
  { n = nthreads; k;
    p = Array.make (max nthreads 1) B.empty;
    e; d; s; yc = Array.make (max nthreads 1) 0 }

let nthreads t = t.n

let grow arr n fill =
  if n <= Array.length arr then Array.copy arr
  else begin
    let a = Array.make (max n (2 * Array.length arr)) fill in
    Array.blit arr 0 a 0 (Array.length arr);
    a
  end

let add_thread t =
  let n = t.n + 1 in
  if n > B.max_capacity then invalid_arg "Fair_sched.add_thread: too many threads";
  let p = grow t.p n B.empty
  and e = grow t.e n B.empty
  and d = grow t.d n B.empty
  and s = grow t.s n B.empty
  and yc = grow t.yc n 0 in
  let et, dt, st = fresh_window n in
  e.(n - 1) <- et; d.(n - 1) <- dt; s.(n - 1) <- st;
  p.(n - 1) <- B.empty;
  yc.(n - 1) <- 0;
  { t with n; p; e; d; s; yc }

(* T = ES \ pre(P, ES); pre(P, X) = { x | ∃y. (x,y) ∈ P ∧ y ∈ X }. *)
let schedulable t ~enabled =
  B.filter (fun x -> B.is_empty (B.inter t.p.(x) enabled)) enabled

let priority_blocked t ~enabled = B.diff enabled (schedulable t ~enabled)

type obs = {
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable penalties : int;
}

let obs_create () = { edges_added = 0; edges_removed = 0; penalties = 0 }

let copy t =
  { t with
    p = Array.copy t.p; e = Array.copy t.e; d = Array.copy t.d;
    s = Array.copy t.s; yc = Array.copy t.yc }

(* Layout: n, k, then P, E, D, S and the yield counts, n ints each. *)
let pack t =
  let n = t.n in
  let a = Array.make ((5 * n) + 2) 0 in
  a.(0) <- n;
  a.(1) <- t.k;
  for u = 0 to n - 1 do
    a.(2 + u) <- B.to_int t.p.(u);
    a.(2 + n + u) <- B.to_int t.e.(u);
    a.(2 + (2 * n) + u) <- B.to_int t.d.(u);
    a.(2 + (3 * n) + u) <- B.to_int t.s.(u);
    a.(2 + (4 * n) + u) <- t.yc.(u)
  done;
  a

(* Runs on every backtrack: plain loops, no per-element closure calls. *)
let unpack a =
  let n = a.(0) in
  let m = max n 1 in
  let p = Array.make m B.empty and e = Array.make m B.empty
  and d = Array.make m B.empty and s = Array.make m B.empty
  and yc = Array.make m 0 in
  for u = 0 to n - 1 do
    p.(u) <- B.unsafe_of_int a.(2 + u);
    e.(u) <- B.unsafe_of_int a.(2 + n + u);
    d.(u) <- B.unsafe_of_int a.(2 + (2 * n) + u);
    s.(u) <- B.unsafe_of_int a.(2 + (3 * n) + u);
    yc.(u) <- a.(2 + (4 * n) + u)
  done;
  { n; k = a.(1); p; e; d; s; yc }

(* Mutates [t] in place and returns it: the search holds a single scheduler
   cell per execution ([fair := Fair_sched.step !fair ...]), so the previous
   value is dead on the hot path. Callers that need an old state to survive
   take an explicit [copy] first (tests), or [pack] it (the search's
   backtracking snapshots, unpacked afresh by every rewind). *)
let step ?obs t ~chosen ~yielded ~es_before ~es_after =
  if chosen < 0 || chosen >= t.n then invalid_arg "Fair_sched.step: bad tid";
  let p = t.p and e = t.e and d = t.d and s = t.s and yc = t.yc in
  (* Line 13: remove all edges with sink [chosen]. *)
  for u = 0 to t.n - 1 do
    (match obs with
     | Some o when B.mem chosen p.(u) -> o.edges_removed <- o.edges_removed + 1
     | _ -> ());
    p.(u) <- B.remove chosen p.(u)
  done;
  (* Lines 14–22: window-set maintenance for every thread. *)
  let newly_disabled = B.diff es_before es_after in
  for u = 0 to t.n - 1 do
    e.(u) <- B.inter e.(u) es_after;
    if u = chosen then d.(u) <- B.union d.(u) newly_disabled;
    s.(u) <- B.add chosen s.(u)
  done;
  (* Lines 23–29: on a (k-th) yield of [chosen], penalize it against the
     threads it starved in the closing window, then open a new window. *)
  if yielded then begin
    yc.(chosen) <- yc.(chosen) + 1;
    if yc.(chosen) >= t.k then begin
      let h = B.diff (B.union e.(chosen) d.(chosen)) s.(chosen) in
      (match obs with
       | Some o ->
         o.penalties <- o.penalties + 1;
         o.edges_added <- o.edges_added + B.cardinal (B.diff h p.(chosen))
       | None -> ());
      p.(chosen) <- B.union p.(chosen) h;
      e.(chosen) <- es_after;
      d.(chosen) <- B.empty;
      s.(chosen) <- B.empty;
      yc.(chosen) <- 0
    end
  end;
  t

let edge_count t =
  let n = ref 0 in
  for x = 0 to t.n - 1 do
    n := !n + B.cardinal t.p.(x)
  done;
  !n

let priority_pairs t =
  let acc = ref [] in
  for x = t.n - 1 downto 0 do
    B.iter (fun y -> acc := (x, y) :: !acc) t.p.(x)
  done;
  List.rev !acc

let sets t ~tid =
  if tid < 0 || tid >= t.n then invalid_arg "Fair_sched.sets";
  (t.e.(tid), t.d.(tid), t.s.(tid))

(* DFS 3-coloring over the edge arrays. *)
let is_acyclic t =
  let color = Array.make (max t.n 1) 0 in
  let rec visit x =
    if color.(x) = 1 then false
    else if color.(x) = 2 then true
    else begin
      color.(x) <- 1;
      let ok = B.for_all (fun y -> y >= t.n || visit y) t.p.(x) in
      color.(x) <- 2;
      ok
    end
  in
  let rec all x = x >= t.n || (visit x && all (x + 1)) in
  all 0

let pp ppf t =
  Format.fprintf ppf "@[<v>P = {%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (x, y) -> Format.fprintf ppf "(%d,%d)" x y))
    (priority_pairs t);
  for u = 0 to t.n - 1 do
    Format.fprintf ppf "@,t%d: E=%a D=%a S=%a" u B.pp t.e.(u) B.pp t.d.(u) B.pp t.s.(u)
  done;
  Format.fprintf ppf "@]"
