(* Semantics of the synchronization-object store: enabledness, execution
   effects, yield inference for timed operations, and misuse detection. *)

module O = Fairmc_core.Objects
module Op = Fairmc_core.Op

let check = Alcotest.(check bool)

let suite =
  [ Alcotest.test_case "mutex lock/unlock lifecycle" `Quick (fun () ->
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        check "free mutex enables lock" true (O.enabled s (Op.Lock m));
        check "lock succeeds" true (O.execute s ~self:3 (Op.Lock m));
        Alcotest.(check (option int)) "holder" (Some 3) (O.holder s m);
        check "held mutex disables lock" false (O.enabled s (Op.Lock m));
        check "trylock on held fails" false (O.execute s ~self:4 (Op.Try_lock m));
        check "unlock" true (O.execute s ~self:3 (Op.Unlock m));
        Alcotest.(check (option int)) "released" None (O.holder s m));
    Alcotest.test_case "unlock by non-owner is misuse" `Quick (fun () ->
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        ignore (O.execute s ~self:1 (Op.Lock m));
        (try
           ignore (O.execute s ~self:2 (Op.Unlock m));
           Alcotest.fail "expected Sync_error"
         with O.Sync_error _ -> ());
        try
          let s2 = O.create () in
          let m2 = O.register s2 O.Mutex ~init:0 in
          ignore (O.execute s2 ~self:2 (Op.Unlock m2));
          Alcotest.fail "unlock of free mutex accepted"
        with O.Sync_error _ -> ());
    Alcotest.test_case "kind confusion is misuse" `Quick (fun () ->
        let s = O.create () in
        let sem = O.register s O.Semaphore ~init:1 in
        try
          ignore (O.execute s ~self:0 (Op.Lock sem));
          Alcotest.fail "lock of a semaphore accepted"
        with O.Sync_error _ -> ());
    Alcotest.test_case "semaphore counting" `Quick (fun () ->
        let s = O.create () in
        let sem = O.register s O.Semaphore ~init:2 in
        check "enabled at 2" true (O.enabled s (Op.Sem_wait sem));
        ignore (O.execute s ~self:0 (Op.Sem_wait sem));
        ignore (O.execute s ~self:1 (Op.Sem_wait sem));
        check "disabled at 0" false (O.enabled s (Op.Sem_wait sem));
        check "try_wait fails at 0" false (O.execute s ~self:0 (Op.Sem_try_wait sem));
        ignore (O.execute s ~self:1 (Op.Sem_post sem));
        check "enabled after post" true (O.enabled s (Op.Sem_wait sem)));
    Alcotest.test_case "manual-reset event" `Quick (fun () ->
        let s = O.create () in
        let e = O.register s O.Manual_event ~init:0 in
        check "unset disables wait" false (O.enabled s (Op.Ev_wait e));
        ignore (O.execute s ~self:0 (Op.Ev_set e));
        check "set enables wait" true (O.enabled s (Op.Ev_wait e));
        ignore (O.execute s ~self:1 (Op.Ev_wait e));
        check "stays set after wait" true (O.enabled s (Op.Ev_wait e));
        ignore (O.execute s ~self:0 (Op.Ev_reset e));
        check "reset clears" false (O.enabled s (Op.Ev_wait e)));
    Alcotest.test_case "auto-reset event consumes on wait" `Quick (fun () ->
        let s = O.create () in
        let e = O.register s O.Auto_event ~init:1 in
        check "initially set" true (O.enabled s (Op.Ev_wait e));
        ignore (O.execute s ~self:0 (Op.Ev_wait e));
        check "consumed" false (O.enabled s (Op.Ev_wait e)));
    Alcotest.test_case "join enabledness tracks finished threads" `Quick (fun () ->
        (* A join waits on a thread, not an object: the engine decides it. *)
        let s = O.create () in
        Alcotest.check_raises "the store does not decide joins"
          (Invalid_argument "Objects.enabled: Join is decided by the engine") (fun () ->
            ignore (O.enabled s (Op.Join 4)));
        let prog =
          Fairmc_core.Program.of_threads ~name:"join" (fun () ->
              [ (fun () -> Fairmc_core.Sync.join 1); (fun () -> Fairmc_core.Sync.yield ()) ])
        in
        let run = Fairmc_core.Engine.start prog in
        Fun.protect ~finally:(fun () -> Fairmc_core.Engine.stop run) @@ fun () ->
        let enabled tid = Fairmc_util.Bitset.mem tid (Fairmc_core.Engine.enabled_set run) in
        check "unfinished blocks join" false (enabled 0);
        Fairmc_core.Engine.step run ~tid:1 ~alt:0;
        check "finished enables join" true (enabled 0));
    Alcotest.test_case "yield inference for timed operations" `Quick (fun () ->
        (* Timed operations yield exactly when they would time out (CHESS's
           rule from Section 4). *)
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        let sem = O.register s O.Semaphore ~init:0 in
        let e = O.register s O.Manual_event ~init:0 in
        check "timedlock on free mutex is not a yield" false (O.would_yield s (Op.Timed_lock m));
        ignore (O.execute s ~self:0 (Op.Lock m));
        check "timedlock on held mutex yields" true (O.would_yield s (Op.Timed_lock m));
        check "sem timed wait at 0 yields" true (O.would_yield s (Op.Sem_timed_wait sem));
        ignore (O.execute s ~self:0 (Op.Sem_post sem));
        check "sem timed wait at 1 does not yield" false (O.would_yield s (Op.Sem_timed_wait sem));
        check "ev timed wait unset yields" true (O.would_yield s (Op.Ev_timed_wait e));
        check "plain yield yields" true (O.would_yield s Op.Yield);
        check "sleep yields" true (O.would_yield s Op.Sleep);
        check "lock never yields" false (O.would_yield s (Op.Lock m)));
    Alcotest.test_case "timed operations are always enabled" `Quick (fun () ->
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        ignore (O.execute s ~self:0 (Op.Lock m));
        check "timedlock enabled on held mutex" true
          (O.enabled s (Op.Timed_lock m));
        check "timedlock on held mutex returns false" false
          (O.execute s ~self:1 (Op.Timed_lock m)));
    Alcotest.test_case "signature tracks state" `Quick (fun () ->
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        let h0 = O.signature s Fairmc_util.Fnv.init in
        ignore (O.execute s ~self:0 (Op.Lock m));
        let h1 = O.signature s Fairmc_util.Fnv.init in
        check "lock changes signature" true (h0 <> h1);
        ignore (O.execute s ~self:0 (Op.Unlock m));
        let h2 = O.signature s Fairmc_util.Fnv.init in
        check "unlock restores signature" true (h0 = h2));
    Alcotest.test_case "default names derive from kind and id" `Quick (fun () ->
        let s = O.create () in
        let m = O.register s O.Mutex ~init:0 in
        let v = O.register s ~name:"x" O.Var ~init:0 in
        Alcotest.(check string) "mutex name" "mutex#0" (O.name s m);
        Alcotest.(check string) "custom name" "x" (O.name s v)) ]
