(* Bytecode VM for ChessLang: the default execution backend.

   Every transition of the search runs here, so per-step interpreter cost
   multiplies through the whole search. Threads are explicit-state machines
   ([Program.machine]): the engine calls [run] to deliver an operation's
   result and run the thread to its next SCHED or HALT, a plain function
   call with no fiber, continuation or effect. Because a thread is nothing
   but its arrays, the VM also saves and restores its state
   ([Program.saver]), which lets the search rewind a run to a backtracking
   point by writing the arrays back instead of re-executing the prefix. It
   executes the flat bytecode produced by [Compile]: a threaded
   [while]/[match] dispatch over an [int array], an [int array] operand
   stack, and flat per-thread frames (a single pc + an [int array] of local
   slots). No strings, no hash tables, no allocation on the per-instruction
   path.

   The observable contract with the AST interpreter ([Machine]) — same
   [Op.t] stream per schedule, same fuel accounting, same runtime-error
   messages and verdicts — is enforced by the differential suite in
   test/test_dsl.ml. *)

open Fairmc_core
module Fnv = Fairmc_util.Fnv
module C = Compile

(* Parked threads sit on a SCHED or HALT instruction with an empty operand
   stack (SCHED opens a statement, so no expression is half-evaluated), so
   [cur_pc] + [locals] are the whole per-thread state: the state signature
   hashes them and the saver copies them. It also means one operand stack
   per boot serves every thread. [cur_pc] is -1 before the first run. *)
type tstate = {
  locals : int array;
  inited : bool array;
  mutable cur_pc : int;
}

exception Vm_error of string * Ast.pos

let rt_err pos fmt = Format.kasprintf (fun m -> raise (Vm_error (m, pos))) fmt

(* Deliver [result] to the SCHED the thread is parked on and run it to the
   next SCHED (returning its operation) or HALT ([None]). A first run starts
   at pc 0. Fuel restarts at every scheduling point, and an atomic block
   holds no SCHED, so neither outlives the call. *)
let run_thread (c : C.t) (sops : Op.t option array) (slots : int array) (stack : int array)
    (tc : C.thread_code) (ts : tstate) result =
  let code = tc.C.t_code in
  let locals = ts.locals and inited = ts.inited in
  let pos_tbl = c.C.c_pos and name_tbl = c.C.c_names and msg_tbl = c.C.c_msgs in
  (* Instruction operands and stack offsets are compiler-validated, so the
     dispatch loop uses unchecked accesses. *)
  let arg i = Array.unsafe_get code i in
  let pc = ref (if ts.cur_pc < 0 then 0 else ts.cur_pc + 2) in
  let sp = ref 0 in
  let fuel = ref Machine.silent_fuel in
  let afuel = ref 0 in
  let prim = result in
  let next = ref None in
  let running = ref true in
  try
    while !running do
      let p = !pc in
      match arg p with
      | 0 (* HALT *) ->
        ts.cur_pc <- p;
        running := false
      | 1 (* PUSH c *) ->
        Array.unsafe_set stack !sp (arg (p + 1));
        incr sp;
        pc := p + 2
      | 2 (* LOAD_G slot *) ->
        Array.unsafe_set stack !sp (Array.unsafe_get slots (arg (p + 1)));
        incr sp;
        pc := p + 2
      | 3 (* STORE_G slot *) ->
        decr sp;
        Array.unsafe_set slots (arg (p + 1)) (Array.unsafe_get stack !sp);
        pc := p + 2
      | 4 (* LOAD_L slot name pos *) ->
        let slot = arg (p + 1) in
        if not (Array.unsafe_get inited slot) then
          rt_err pos_tbl.(arg (p + 3)) "local %s read before initialization"
            name_tbl.(arg (p + 2));
        Array.unsafe_set stack !sp (Array.unsafe_get locals slot);
        incr sp;
        pc := p + 4
      | 5 (* STORE_L slot *) ->
        decr sp;
        let slot = arg (p + 1) in
        Array.unsafe_set locals slot (Array.unsafe_get stack !sp);
        Array.unsafe_set inited slot true;
        pc := p + 2
      | 6 (* LOAD_GI base size name pos *) ->
        let iv = Array.unsafe_get stack (!sp - 1) in
        let size = arg (p + 2) in
        if iv < 0 || iv >= size then
          rt_err pos_tbl.(arg (p + 4)) "index %d out of bounds for %s[%d]" iv
            name_tbl.(arg (p + 3)) size;
        Array.unsafe_set stack (!sp - 1) (Array.unsafe_get slots (arg (p + 1) + iv));
        pc := p + 5
      | 7 (* STORE_GI base size name pos *) ->
        let v = Array.unsafe_get stack (!sp - 1) in
        let iv = Array.unsafe_get stack (!sp - 2) in
        let size = arg (p + 2) in
        if iv < 0 || iv >= size then
          rt_err pos_tbl.(arg (p + 4)) "index %d out of bounds for %s[%d]" iv
            name_tbl.(arg (p + 3)) size;
        Array.unsafe_set slots (arg (p + 1) + iv) v;
        sp := !sp - 2;
        pc := p + 5
      | 8 (* ADD *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Array.unsafe_get stack s + Array.unsafe_get stack (s + 1));
        sp := s + 1;
        pc := p + 1
      | 9 (* SUB *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Array.unsafe_get stack s - Array.unsafe_get stack (s + 1));
        sp := s + 1;
        pc := p + 1
      | 10 (* MUL *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Array.unsafe_get stack s * Array.unsafe_get stack (s + 1));
        sp := s + 1;
        pc := p + 1
      | 11 (* DIV *) ->
        let s = !sp - 2 in
        let vb = Array.unsafe_get stack (s + 1) in
        if vb = 0 then rt_err { Ast.line = 0; col = 0 } "division by zero";
        Array.unsafe_set stack s (Array.unsafe_get stack s / vb);
        sp := s + 1;
        pc := p + 1
      | 12 (* MOD *) ->
        let s = !sp - 2 in
        let vb = Array.unsafe_get stack (s + 1) in
        if vb = 0 then rt_err { Ast.line = 0; col = 0 } "modulo by zero";
        Array.unsafe_set stack s (Array.unsafe_get stack s mod vb);
        sp := s + 1;
        pc := p + 1
      | 13 (* EQ *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s = Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 14 (* NE *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s <> Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 15 (* LT *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s < Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 16 (* LE *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s <= Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 17 (* GT *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s > Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 18 (* GE *) ->
        let s = !sp - 2 in
        Array.unsafe_set stack s
          (Bool.to_int (Array.unsafe_get stack s >= Array.unsafe_get stack (s + 1)));
        sp := s + 1;
        pc := p + 1
      | 19 (* NOT *) ->
        let s = !sp - 1 in
        Array.unsafe_set stack s (Bool.to_int (Array.unsafe_get stack s = 0));
        pc := p + 1
      | 20 (* NEG *) ->
        let s = !sp - 1 in
        Array.unsafe_set stack s (-Array.unsafe_get stack s);
        pc := p + 1
      | 21 (* JMP t *) -> pc := arg (p + 1)
      | 22 (* JZ t *) ->
        decr sp;
        pc := if Array.unsafe_get stack !sp = 0 then arg (p + 1) else p + 2
      | 23 (* JNZ t *) ->
        decr sp;
        pc := if Array.unsafe_get stack !sp <> 0 then arg (p + 1) else p + 2
      | 24 (* SCHED opidx *) ->
        ts.cur_pc <- p;
        next := Array.unsafe_get sops (arg (p + 1));
        running := false
      | 25 (* PRIM *) ->
        Array.unsafe_set stack !sp prim;
        incr sp;
        pc := p + 1
      | 26 (* FUEL pos *) ->
        decr fuel;
        if !fuel <= 0 then
          rt_err pos_tbl.(arg (p + 1))
            "thread %s ran %d silent steps without a scheduling point" tc.C.t_name
            Machine.silent_fuel;
        pc := p + 2
      | 27 (* AFUEL pos *) ->
        decr afuel;
        if !afuel <= 0 then
          rt_err pos_tbl.(arg (p + 1)) "atomic block exceeded %d steps"
            Machine.silent_fuel;
        pc := p + 2
      | 28 (* ATOMIC_ENTER *) ->
        afuel := Machine.silent_fuel;
        pc := p + 1
      | 29 (* ASSERT msg pos *) ->
        decr sp;
        if Array.unsafe_get stack !sp = 0 then
          rt_err pos_tbl.(arg (p + 2)) "%s" msg_tbl.(arg (p + 1));
        pc := p + 3
      | _ -> assert false
    done;
    !next
  with Vm_error (msg, pos) ->
    Sync.fail (Format.asprintf "%s (thread %s, %a)" msg tc.C.t_name Ast.pp_pos pos)

(* Boot: register scheduling objects in declaration order — the same order
   (and constructors) as [Machine.build_objects], so [Op.obj] identities,
   and hence transition streams, are identical across backends. *)
let boot (c : C.t) () =
  let slots = Array.copy c.C.c_init in
  let vars = ref [] and mutexes = ref [] and sems = ref [] and events = ref [] in
  Array.iter
    (function
      | C.Reg_var name -> vars := Sync.Raw.var ~name () :: !vars
      | C.Reg_mutex name -> mutexes := Sync.Mutex.create ~name () :: !mutexes
      | C.Reg_sem (name, init) -> sems := Sync.Semaphore.create ~name init :: !sems
      | C.Reg_event (name, auto) -> events := Sync.Event.create ~name ~auto () :: !events)
    c.C.c_regs;
  let vars = Array.of_list (List.rev !vars) in
  let mutexes = Array.of_list (List.rev !mutexes) in
  let sems = Array.of_list (List.rev !sems) in
  let events = Array.of_list (List.rev !events) in
  let ops =
    Array.map
      (function
        | C.T_lock m -> Op.Lock (Sync.Mutex.id mutexes.(m))
        | C.T_try_lock m -> Op.Try_lock (Sync.Mutex.id mutexes.(m))
        | C.T_timed_lock m -> Op.Timed_lock (Sync.Mutex.id mutexes.(m))
        | C.T_unlock m -> Op.Unlock (Sync.Mutex.id mutexes.(m))
        | C.T_sem_wait s -> Op.Sem_wait (Sync.Semaphore.id sems.(s))
        | C.T_sem_timed_wait s -> Op.Sem_timed_wait (Sync.Semaphore.id sems.(s))
        | C.T_sem_post s -> Op.Sem_post (Sync.Semaphore.id sems.(s))
        | C.T_ev_wait e -> Op.Ev_wait (Sync.Event.id events.(e))
        | C.T_ev_timed_wait e -> Op.Ev_timed_wait (Sync.Event.id events.(e))
        | C.T_ev_set e -> Op.Ev_set (Sync.Event.id events.(e))
        | C.T_ev_reset e -> Op.Ev_reset (Sync.Event.id events.(e))
        | C.T_var_read v -> Op.Var_read vars.(v)
        | C.T_var_write v -> Op.Var_write vars.(v)
        | C.T_var_rmw v -> Op.Var_rmw vars.(v)
        | C.T_choose n -> Op.Choose n
        | C.T_yield -> Op.Yield
        | C.T_sleep -> Op.Sleep)
      c.C.c_ops
  in
  (* Boxed once, as [run] returns them. *)
  let sops = Array.map Option.some ops in
  let tstates =
    Array.map
      (fun (tc : C.thread_code) ->
        { locals = Array.make (max tc.C.t_nlocals 1) 0;
          inited = Array.make (max tc.C.t_nlocals 1) false;
          cur_pc = -1 })
      c.C.c_threads
  in
  let snapshot () =
    let h = ref (Fnv.ints Fnv.init slots) in
    Array.iteri
      (fun i (ts : tstate) ->
        h := Fnv.int !h ts.cur_pc;
        let tc = c.C.c_threads.(i) in
        for j = 0 to tc.C.t_nlocals - 1 do
          h := Fnv.int !h (if ts.inited.(j) then ts.locals.(j) else min_int)
        done)
      tstates;
    !h
  in
  (* Saved state: the slots, then per thread its pc and (value, inited)
     pairs for its locals. *)
  let nslots = Array.length slots in
  let words =
    Array.fold_left (fun n (ts : tstate) -> n + 1 + (2 * Array.length ts.locals)) nslots tstates
  in
  let capture a off =
    Array.blit slots 0 a off nslots;
    let o = ref (off + nslots) in
    Array.iter
      (fun (ts : tstate) ->
        a.(!o) <- ts.cur_pc;
        Array.iteri
          (fun j v ->
            a.(!o + 1 + (2 * j)) <- v;
            a.(!o + 2 + (2 * j)) <- Bool.to_int ts.inited.(j))
          ts.locals;
        o := !o + 1 + (2 * Array.length ts.locals))
      tstates
  in
  let restore a off =
    Array.blit a off slots 0 nslots;
    let o = ref (off + nslots) in
    Array.iter
      (fun (ts : tstate) ->
        ts.cur_pc <- a.(!o);
        for j = 0 to Array.length ts.locals - 1 do
          ts.locals.(j) <- a.(!o + 1 + (2 * j));
          ts.inited.(j) <- a.(!o + 2 + (2 * j)) <> 0
        done;
        o := !o + 1 + (2 * Array.length ts.locals))
      tstates
  in
  let depth = Array.fold_left (fun n (tc : C.thread_code) -> max n tc.C.t_stack) 1 c.C.c_threads in
  let stack = Array.make depth 0 in
  let run tid result = run_thread c sops slots stack c.C.c_threads.(tid) tstates.(tid) result in
  let pending tid =
    let ts = tstates.(tid) in
    let code = c.C.c_threads.(tid).C.t_code in
    if code.(ts.cur_pc) = C.op_sched then sops.(code.(ts.cur_pc + 1)) else None
  in
  ( (slots, tstates),
    { Program.threads = [];
      machine = Some { Program.count = Array.length tstates; run; pending };
      snapshot = Some snapshot;
      saver = Some { Program.words; capture; restore } } )

let program_of (c : C.t) =
  Program.make ~name:c.C.c_name (fun () -> snd (boot c ()))

let compile ?invisible (prog : Ast.program) = program_of (Compile.compile ?invisible prog)

(* [compile_inspect] additionally returns a dump of the most recent boot's
   store — globals (array cells as "a[i]") then initialized locals
   ("thread.name") — for differential final-state comparison in tests. *)
let compile_inspect ?invisible (prog : Ast.program) =
  let c = Compile.compile ?invisible prog in
  let last = ref None in
  let p =
    Program.make ~name:c.C.c_name (fun () ->
        let st, booted = boot c () in
        last := Some st;
        booted)
  in
  let dump () =
    match !last with
    | None -> []
    | Some (slots, tstates) ->
      let globals =
        Array.to_list c.C.c_globals
        |> List.concat_map (fun (name, base, size) ->
               if size = 0 then [ (name, slots.(base)) ]
               else
                 List.init size (fun i ->
                     (Printf.sprintf "%s[%d]" name i, slots.(base + i))))
      in
      let locals =
        Array.to_list
          (Array.mapi
             (fun i (ts : tstate) ->
               let tc = c.C.c_threads.(i) in
               List.concat
                 (List.init tc.C.t_nlocals (fun j ->
                      if ts.inited.(j) then
                        [ (tc.C.t_name ^ "." ^ tc.C.t_local_names.(j), ts.locals.(j)) ]
                      else [])))
             tstates)
        |> List.concat
      in
      globals @ locals
  in
  (p, dump)

(* The dispatch match above uses literal opcodes; pin them to the
   compiler's constants so a renumbering cannot silently skew dispatch. *)
let () =
  assert (
    C.op_halt = 0 && C.op_push = 1 && C.op_load_g = 2 && C.op_store_g = 3
    && C.op_load_l = 4 && C.op_store_l = 5 && C.op_load_gi = 6 && C.op_store_gi = 7
    && C.op_add = 8 && C.op_sub = 9 && C.op_mul = 10 && C.op_div = 11 && C.op_mod = 12
    && C.op_eq = 13 && C.op_ne = 14 && C.op_lt = 15 && C.op_le = 16 && C.op_gt = 17
    && C.op_ge = 18 && C.op_not = 19 && C.op_neg = 20 && C.op_jmp = 21 && C.op_jz = 22
    && C.op_jnz = 23 && C.op_sched = 24 && C.op_prim = 25 && C.op_fuel = 26
    && C.op_afuel = 27 && C.op_atomic_enter = 28 && C.op_assert = 29)
