(* Tests for Algorithm 1 (the fair scheduler): initialization conventions,
   the paper's Figure 4 emulation step by step, the acyclicity invariant of
   Theorem 3, and qcheck properties over random update sequences. *)

module B = Fairmc_util.Bitset
module FS = Fairmc_core.Fair_sched

let set = Alcotest.testable B.pp B.equal

let full n = B.full n

(* Random walks over scheduler updates, used by several properties. A step
   picks a schedulable thread, a yield flag, and enabled sets consistent
   with the pick. *)
let random_walk seed steps nthreads =
  let rng = Fairmc_util.Rng.make (Int64.of_int seed) in
  let fs = ref (FS.create ~nthreads ()) in
  (* [step] mutates in place, so snapshot each state with an explicit copy. *)
  let states = ref [ FS.copy !fs ] in
  for _ = 1 to steps do
    (* Random nonempty enabled set. *)
    let es = ref B.empty in
    while B.is_empty !es do
      es := B.empty;
      for t = 0 to nthreads - 1 do
        if Fairmc_util.Rng.bool rng then es := B.add t !es
      done
    done;
    let tset = FS.schedulable !fs ~enabled:!es in
    (* Theorem 3: nonempty enabled set implies nonempty schedulable set. *)
    assert (not (B.is_empty tset));
    let chosen = B.nth tset (Fairmc_util.Rng.int rng (B.cardinal tset)) in
    let yielded = Fairmc_util.Rng.bool rng in
    let es_after = ref B.empty in
    for t = 0 to nthreads - 1 do
      if Fairmc_util.Rng.bool rng then es_after := B.add t !es_after
    done;
    fs := FS.step !fs ~chosen ~yielded ~es_before:!es ~es_after:!es_after;
    states := FS.copy !fs :: !states
  done;
  !states

let unit_tests =
  [ Alcotest.test_case "initial windows per the paper" `Quick (fun () ->
        (* init: P = {}, E(u) = {}, D(u) = S(u) = Tid — so the first yield
           of any thread computes H = (E ∪ D) \ S = Tid \ Tid = {}. *)
        let fs = FS.create ~nthreads:3 () in
        Alcotest.(check (list (pair int int))) "P empty" [] (FS.priority_pairs fs);
        for t = 0 to 2 do
          let e, d, s = FS.sets fs ~tid:t in
          Alcotest.check set "E empty" B.empty e;
          Alcotest.check set "D = Tid" (full 3) d;
          Alcotest.check set "S = Tid" (full 3) s
        done);
    Alcotest.test_case "first yield leaves P unchanged" `Quick (fun () ->
        let fs = FS.create ~nthreads:2 () in
        let es = full 2 in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P still empty" [] (FS.priority_pairs fs));
    Alcotest.test_case "Figure 4 emulation" `Quick (fun () ->
        (* The paper's emulation on the Figure 3 spin loop: scheduling u
           (thread 1) continuously. u's transitions: loop test (not a
           yield), then yield, repeatedly. After u's *second* yield the edge
           (u, t) must appear, forcing t. *)
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        (* u: while (x != 1)  — not a yield *)
        let fs = FS.step fs ~chosen:1 ~yielded:false ~es_before:es ~es_after:es in
        (* u: yield()  — first yield: window opens, P unchanged *)
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P empty after first yield" []
          (FS.priority_pairs fs);
        let e, d, s = FS.sets fs ~tid:1 in
        Alcotest.check set "E(u) = ES" es e;
        Alcotest.check set "D(u) = {}" B.empty d;
        Alcotest.check set "S(u) = {}" B.empty s;
        (* u: while (x != 1) again *)
        let fs = FS.step fs ~chosen:1 ~yielded:false ~es_before:es ~es_after:es in
        let _, _, s = FS.sets fs ~tid:1 in
        Alcotest.check set "S(u) = {u}" (B.singleton 1) s;
        (* u: yield() again — H = (E ∪ D) \ S = {t,u} \ {u} = {t} *)
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge (u,t) added" [ (1, 0) ]
          (FS.priority_pairs fs);
        (* With both enabled, u is now blocked: T = {t}. *)
        Alcotest.check set "only t schedulable" (B.singleton 0)
          (FS.schedulable fs ~enabled:es);
        (* Scheduling t removes edges with sink t?  No — removes edges with
           sink t: (u,t) has sink t, so it is removed (line 13). *)
        let fs = FS.step fs ~chosen:0 ~yielded:false ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge removed once t runs" []
          (FS.priority_pairs fs));
    Alcotest.test_case "blocked thread schedulable once blocker disabled" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge (1,0)" [ (1, 0) ] (FS.priority_pairs fs);
        (* If t (thread 0) becomes disabled, u may run again: the edge only
           constrains u while its sink is enabled. *)
        Alcotest.check set "u schedulable when t disabled" (B.singleton 1)
          (FS.schedulable fs ~enabled:(B.singleton 1)));
    Alcotest.test_case "disabling attributed to the executing thread" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        (* Open windows for thread 0. *)
        let fs = FS.step fs ~chosen:0 ~yielded:true ~es_before:es ~es_after:es in
        (* Thread 0 disables thread 1 (lock acquisition). *)
        let fs = FS.step fs ~chosen:0 ~yielded:false ~es_before:es ~es_after:(B.singleton 0) in
        let _, d, _ = FS.sets fs ~tid:0 in
        Alcotest.check set "D(0) contains 1" (B.singleton 1) (B.inter d (B.singleton 1));
        (* At 0's next yield, H includes the disabled thread 1 even though it
           is not continuously enabled. *)
        let fs =
          FS.step fs ~chosen:0 ~yielded:true ~es_before:(B.singleton 0)
            ~es_after:(B.singleton 0)
        in
        Alcotest.(check (list (pair int int))) "edge (0,1)" [ (0, 1) ] (FS.priority_pairs fs));
    Alcotest.test_case "k-parameterization delays penalties" `Quick (fun () ->
        (* With k = 2, only every second yield updates P: the Figure 4
           sequence needs four yields instead of two. *)
        let es = full 2 in
        let fs = ref (FS.create ~nthreads:2 ~k:2 ()) in
        for _ = 1 to 3 do
          fs := FS.step !fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es
        done;
        Alcotest.(check (list (pair int int))) "no edge after 3 yields (k=2)" []
          (FS.priority_pairs !fs);
        fs := FS.step !fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es;
        Alcotest.(check (list (pair int int))) "edge after 4th yield" [ (1, 0) ]
          (FS.priority_pairs !fs));
    Alcotest.test_case "add_thread initializes a fresh window" `Quick (fun () ->
        let fs = FS.create ~nthreads:2 () in
        let fs = FS.add_thread fs in
        Alcotest.(check int) "three threads" 3 (FS.nthreads fs);
        let e, d, s = FS.sets fs ~tid:2 in
        Alcotest.check set "E empty" B.empty e;
        Alcotest.check set "D full" (full 3) d;
        Alcotest.check set "S full" (full 3) s;
        (* Its first yield adds nothing, like at init. *)
        let es = full 3 in
        let fs = FS.step fs ~chosen:2 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P empty" [] (FS.priority_pairs fs));
    Alcotest.test_case "copy isolates in-place steps" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        let snap = FS.copy fs in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "stepped has edge" [ (1, 0) ]
          (FS.priority_pairs fs);
        Alcotest.(check (list (pair int int))) "copy unaffected" []
          (FS.priority_pairs snap);
        let _, _, s = FS.sets snap ~tid:1 in
        Alcotest.check set "copy windows unaffected" (full 2) s);
    Alcotest.test_case "invalid arguments rejected" `Quick (fun () ->
        (try
           ignore (FS.create ~nthreads:2 ~k:0 ());
           Alcotest.fail "k=0 accepted"
         with Invalid_argument _ -> ());
        let fs = FS.create ~nthreads:2 () in
        try
          ignore (FS.step fs ~chosen:5 ~yielded:false ~es_before:B.empty ~es_after:B.empty);
          Alcotest.fail "bad tid accepted"
        with Invalid_argument _ -> ()) ]

let qprops =
  [ QCheck.Test.make ~name:"P stays acyclic (Theorem 3 invariant)" ~count:200
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all FS.is_acyclic (random_walk seed 60 n));
    QCheck.Test.make ~name:"schedulable nonempty iff enabled nonempty (Theorem 3)" ~count:200
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all
          (fun fs ->
            (* For every state on the walk and every nonempty enabled set,
               the schedulable set is nonempty. *)
            let rng = Fairmc_util.Rng.make (Int64.of_int (seed + 17)) in
            let ok = ref true in
            for _ = 1 to 10 do
              let es = ref B.empty in
              while B.is_empty !es do
                for t = 0 to n - 1 do
                  if Fairmc_util.Rng.bool rng then es := B.add t !es
                done
              done;
              if B.is_empty (FS.schedulable fs ~enabled:!es) then ok := false
            done;
            !ok)
          (random_walk seed 40 n));
    QCheck.Test.make ~name:"schedulable is a subset of enabled" ~count:100
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all
          (fun fs -> B.subset (FS.schedulable fs ~enabled:(full n)) (full n))
          (random_walk seed 40 n));
    QCheck.Test.make ~name:"scheduling a thread clears edges into it" ~count:100
      QCheck.(pair small_int (int_range 2 5))
      (fun (seed, n) ->
        let states = random_walk seed 50 n in
        (* Reconstruct: after any step with chosen = c, no (x, c) edge may
           remain unless re-added by a later yield of x; we check the
           weaker, always-true invariant on the immediate successor by
           re-running a single controlled step. *)
        List.for_all
          (fun fs ->
            let es = full n in
            let fs' = FS.step (FS.copy fs) ~chosen:0 ~yielded:false ~es_before:es ~es_after:es in
            List.for_all (fun (_, y) -> y <> 0) (FS.priority_pairs fs'))
          states) ]

(* Kept after the properties so earlier test indices stay stable. *)
let pack_tests =
  [ Alcotest.test_case "pack/unpack round-trips" `Quick (fun () ->
        List.iter
          (fun fs ->
            let a = FS.pack fs in
            let fs' = FS.unpack a in
            Alcotest.(check (array int)) "repacks identically" a (FS.pack fs');
            Alcotest.(check (list (pair int int))) "same P" (FS.priority_pairs fs)
              (FS.priority_pairs fs');
            for tid = 0 to FS.nthreads fs - 1 do
              let e, d, s = FS.sets fs ~tid and e', d', s' = FS.sets fs' ~tid in
              Alcotest.check set "E" e e';
              Alcotest.check set "D" d d';
              Alcotest.check set "S" s s'
            done)
          (random_walk 7 40 3)) ]

let suite =
  unit_tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops @ pack_tests
