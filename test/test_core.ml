(* Unit tests for the theory library: vector clocks, happens-before,
   the Save-work checker, the dangerous-paths coloring (including the
   paper's Figure 6 cases), the Lose-work analyses, consistent-recovery
   equivalence, and the protocol space. *)

open Ft_core

(* e1 happens-before e2.  With per-event clock snapshots taken just after
   the tick, strict pointwise comparison is exactly Lamport's relation.
   [Save_work] reads the relation off one clock component instead; the
   tests and the reference oracle below keep this all-pairs form. *)
let happens_before (e1 : Event.t) (e2 : Event.t) = Vclock.lt e1.vc e2.vc

(* The paper uses happens-before as an approximation of causality; the
   theory call sites keep its name. *)
let causally_precedes = happens_before

(* --- vector clocks ------------------------------------------------------ *)

let test_vclock_basics () =
  let a = Vclock.create 3 and b = Vclock.create 3 in
  Vclock.tick a 0;
  Alcotest.(check bool) "a > 0" true (Vclock.lt b a);
  Vclock.tick b 1;
  Alcotest.(check bool) "concurrent not lt" false (Vclock.lt a b);
  Alcotest.(check bool) "concurrent not gt" false (Vclock.lt b a);
  Vclock.merge_into ~into:b a;
  Alcotest.(check bool) "after merge a <= b" true (Vclock.leq a b)

let test_vclock_size_mismatch () =
  let a = Vclock.create 3 and b = Vclock.create 2 in
  (match Vclock.merge_into ~into:a b with
  | () -> Alcotest.fail "narrow merge must not succeed"
  | exception Vclock.Size_mismatch { expected; got } ->
      Alcotest.(check int) "expected width" 3 expected;
      Alcotest.(check int) "got width" 2 got);
  (match Vclock.merge_into ~into:b a with
  | () -> Alcotest.fail "wide merge must not succeed"
  | exception Vclock.Size_mismatch { expected; got } ->
      Alcotest.(check int) "expected width" 2 expected;
      Alcotest.(check int) "got width" 3 got);
  (* same width still merges, and the error left [a] untouched *)
  Vclock.merge_into ~into:a (Vclock.create 3);
  Alcotest.(check bool) "a unchanged" true (Vclock.equal a (Vclock.create 3))

let test_happens_before_chain () =
  let t = Trace.create ~nprocs:2 in
  let e1 = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let s = Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 1 }) in
  let r = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }) in
  let v = Trace.record t ~pid:1 (Event.Visible 7) in
  Alcotest.(check bool) "e1 hb s" true (happens_before e1 s);
  Alcotest.(check bool) "s hb r" true (happens_before s r);
  Alcotest.(check bool) "e1 hb v (transitively, across the message)" true
    (happens_before e1 v);
  Alcotest.(check bool) "v not hb e1" false (happens_before v e1)

let test_concurrent_events () =
  let t = Trace.create ~nprocs:2 in
  let a = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let b = Trace.record t ~pid:1 (Event.Nd Event.Transient) in
  Alcotest.(check bool) "independent procs concurrent" false
    (happens_before a b || happens_before b a)

(* --- Save-work ----------------------------------------------------------- *)

let test_save_work_violation_detected () =
  (* ND then visible with no commit: the coin-flip example of Fig. 1. *)
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "violated" false (Save_work.holds t);
  Alcotest.(check int) "one violation" 1
    (List.length (Save_work.visible_violations t))

let test_save_work_commit_cures () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "upheld" true (Save_work.holds t)

let test_save_work_logged_nd_exempt () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 ~logged:true (Event.Nd Event.Fixed));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "logging renders the event deterministic" true
    (Save_work.holds t)

let test_save_work_commit_after_visible_insufficient () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "commit must happen-before the visible" false
    (Save_work.holds t)

let test_save_work_orphan_figure2 () =
  (* Figure 2: B executes ND, sends to A, A commits -> A is an orphan
     candidate; Save-work-orphan is violated. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:1 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:1 (Event.Send { dest = 0; tag = 9 }));
  ignore (Trace.record t ~pid:0 (Event.Receive { src = 1; tag = 9 }));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "orphan violation present" true
    (Save_work.orphan_violations t <> []);
  (* now B crashes without committing: A is an orphan *)
  ignore (Trace.record t ~pid:1 Event.Crash);
  Alcotest.(check (list int)) "A is an orphan" [ 0 ] (Save_work.orphans t)

let test_save_work_orphan_cured_by_sender_commit () =
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:1 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:1 Event.Commit);
  ignore (Trace.record t ~pid:1 (Event.Send { dest = 0; tag = 9 }));
  ignore (Trace.record t ~pid:0 (Event.Receive { src = 1; tag = 9 }));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "sender committed first: no orphan" true
    (Save_work.holds t);
  ignore (Trace.record t ~pid:1 Event.Crash);
  Alcotest.(check (list int)) "no orphans" [] (Save_work.orphans t)

(* --- dangerous paths (Figure 6) ------------------------------------------ *)

(* Case A: a deterministic straight line into a crash: every edge is
   dangerous; committing anywhere prevents recovery. *)
let test_figure6_case_a () =
  let g =
    State_graph.make ~nstates:4
      ~edges:[ (0, 1, State_graph.Det); (1, 2, State_graph.Det);
               (2, 3, State_graph.Det) ]
      ~crash_states:[ 3 ]
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check (list bool)) "all colored" [ true; true; true ]
    (Array.to_list d);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "initial state doomed" true doomed.(0)

(* Case B: a transient ND event with one result avoiding the crash:
   committing before it is safe. *)
let test_figure6_case_b () =
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);          (* edge 0: into the choice *)
          (1, 2, State_graph.Transient_nd); (* edge 1: crash branch *)
          (1, 3, State_graph.Transient_nd); (* edge 2: safe branch *)
          (2, 4, State_graph.Det) ]         (* edge 3: crash event *)
      ~crash_states:[ 4 ]
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "crash edge colored" true d.(3);
  Alcotest.(check bool) "crash-bound ND colored" true d.(1);
  Alcotest.(check bool) "safe ND not colored" false d.(2);
  Alcotest.(check bool) "pre-choice edge not colored" false d.(0);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "safe to commit before the transient ND" false
    doomed.(1)

(* Case C: the same choice but fixed ND: we cannot rely on the fixed event
   taking the safe result, so committing before it is unsafe. *)
let test_figure6_case_c () =
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);
          (1, 2, State_graph.Fixed_nd);
          (1, 3, State_graph.Fixed_nd);
          (2, 4, State_graph.Det) ]
      ~crash_states:[ 4 ]
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "crash-bound fixed ND colored" true d.(1);
  Alcotest.(check bool) "pre-choice edge colored (fixed rule)" true d.(0);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "unsafe to commit before the fixed ND" true
    doomed.(1)

(* Cross-check the coloring against a brute-force reading on a diamond. *)
let test_dangerous_nontrivial_graph () =
  (* 0 -det-> 1; 1 -trans-> 2 (safe loop back to 1 terminal ok?) ... use:
     0 -> 1 det; 1 -> 2 transient; 1 -> 3 transient; 2 -> 4 det (crash);
     3 -> 5 det (terminal ok); plus 3 -> 6 fixed; 6 crash. *)
  let g =
    State_graph.make ~nstates:7
      ~edges:
        [ (0, 1, State_graph.Det);        (* 0 *)
          (1, 2, State_graph.Transient_nd); (* 1 *)
          (1, 3, State_graph.Transient_nd); (* 2 *)
          (2, 4, State_graph.Det);        (* 3: crash *)
          (3, 5, State_graph.Det);        (* 4: success *)
          (3, 6, State_graph.Fixed_nd) ]  (* 5: crash via fixed nd *)
      ~crash_states:[ 4; 6 ]
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "edge to state 2 colored" true d.(1);
  (* state 3's fixed-ND crash colors edge 2 by the fixed rule, even
     though the success edge exists *)
  Alcotest.(check bool) "edge to state 3 colored via fixed rule" true d.(2);
  Alcotest.(check bool) "success edge itself not colored" false d.(4);
  (* both transient branches out of state 1 are colored (one reaches the
     crash, the other has a colored fixed-ND exit), so the "all colored"
     rule propagates the color to edge 0 as well *)
  Alcotest.(check bool) "edge 0 colored (all branches dangerous)" true d.(0)

(* Receive classification for the multi-process algorithm (§2.5). *)
let test_receive_classification () =
  let t = Trace.create ~nprocs:2 in
  (* sender: commit, then transient ND, then send -> receive is transient *)
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 1 }));
  let r1 = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }) in
  Alcotest.(check bool) "transient receive" true
    (Dangerous_paths.receive_class_of_trace t r1 = Event.Transient);
  (* sender: ND, commit, send -> the message is deterministically
     regenerated; receive is fixed *)
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 2 }));
  let r2 = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 2 }) in
  Alcotest.(check bool) "fixed receive" true
    (Dangerous_paths.receive_class_of_trace t r2 = Event.Fixed)

(* Multi-Process Dangerous Paths Algorithm end to end (§2.5): the same
   state machine is dangerous or safe depending on the snapshot of the
   sender's commits. *)
let test_multi_process_dangerous_paths () =
  (* P's machine: state 1 has two receive outcomes — one into a crash,
     one safe (the Figure 6B/6C shape, with receives standing in for
     the non-determinism).  Whether committing at state 1 is safe
     depends on the receive's effective class, which depends on the
     snapshot of the sender's commits. *)
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);          (* edge 0 *)
          (1, 2, State_graph.Receive_nd 0); (* edge 1: crash branch *)
          (1, 3, State_graph.Receive_nd 0); (* edge 2: safe branch *)
          (2, 4, State_graph.Det) ]         (* edge 3: crash event *)
      ~crash_states:[ 4 ]
  in
  let make_trace ~sender_committed_before_send =
    let t = Trace.create ~nprocs:2 in
    if not sender_committed_before_send then begin
      ignore (Trace.record t ~pid:0 Event.Commit);
      ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient))
    end
    else begin
      ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
      ignore (Trace.record t ~pid:0 Event.Commit)
    end;
    ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 5 }));
    let recv = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 5 }) in
    (t, recv)
  in
  (* transient case: the sender has uncommitted transient ND before the
     send, so during recovery the message may differ *)
  let t1, r1 = make_trace ~sender_committed_before_send:false in
  let d1 =
    Dangerous_paths.multi_process_dangerous_edges g ~trace:t1
      ~recv_event_of_edge:(fun _ -> Some r1)
  in
  Alcotest.(check bool) "crash-bound receive colored" true d1.(1);
  Alcotest.(check bool)
    "transient receives: the pre-choice edge stays safe" false d1.(0);
  (* fixed case: the sender committed before sending, so it will
     deterministically regenerate the same message *)
  let t2, r2 = make_trace ~sender_committed_before_send:true in
  let d2 =
    Dangerous_paths.multi_process_dangerous_edges g ~trace:t2
      ~recv_event_of_edge:(fun _ -> Some r2)
  in
  Alcotest.(check bool)
    "fixed receives: the whole path becomes dangerous" true d2.(0)

let test_safe_to_commit_api () =
  let g =
    State_graph.make ~nstates:3
      ~edges:[ (0, 1, State_graph.Transient_nd); (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ]
  in
  (* state 0: its only exit is a transient ND... whose every outcome
     crashes, so it is doomed; build a safe variant with an escape *)
  Alcotest.(check bool) "no escape: unsafe" true
    (Dangerous_paths.doomed_states g).(0);
  let g2 =
    State_graph.make ~nstates:4
      ~edges:
        [ (0, 1, State_graph.Transient_nd); (0, 3, State_graph.Transient_nd);
          (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ]
  in
  Alcotest.(check bool) "transient escape exists: safe" false
    (Dangerous_paths.doomed_states g2).(0)

(* --- Lose-work ------------------------------------------------------------ *)

let test_lose_work_figure9 () =
  (* transient ND, fault activation (internal), visible, crash: the
     dangerous path spans from after the ND event to the crash; CPVS's
     commit before the visible violates Lose-work. *)
  let t = Trace.create ~nprocs:1 in
  let nd = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let act = Trace.record t ~pid:0 Event.Internal in
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Visible 5));
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "not a Bohrbug" false a.Lose_work.bohrbug;
  Alcotest.(check int) "dangerous from just after the ND"
    (nd.Event.index + 1) a.Lose_work.dangerous_from;
  Alcotest.(check bool) "violated" true a.Lose_work.violated;
  Alcotest.(check bool) "table-1 criterion" true
    (Lose_work.committed_after_activation t
       ~activation:(act.Event.pid, act.Event.index));
  Alcotest.(check bool) "save-work/lose-work conflict" true
    (Lose_work.conflict t ~crash)

let test_lose_work_commit_before_nd_safe () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Internal);
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "commit before the ND is safe" false
    a.Lose_work.violated

let test_lose_work_bohrbug () =
  (* No transient ND before the crash: the dangerous path reaches the
     initial (always committed) state. *)
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 Event.Internal);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Fixed));
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "Bohrbug" true a.Lose_work.bohrbug;
  Alcotest.(check bool) "inherently violated" true a.Lose_work.violated

(* The Table-1 criterion over hand-built traces: [activation] is the
   faulty pid and the index of its first event after activation, as the
   injectors record it. *)
let test_lose_work_table1_criterion () =
  let judge ?(nprocs = 1) events ~activation =
    let t = Trace.create ~nprocs in
    List.iter (fun (pid, kind) -> ignore (Trace.record t ~pid kind)) events;
    Lose_work.committed_after_activation t ~activation
  in
  Alcotest.(check bool) "a commit at the activation index counts" true
    (judge
       [ (0, Event.Internal); (0, Event.Commit); (0, Event.Crash) ]
       ~activation:(0, 1));
  Alcotest.(check bool) "a commit just before it does not" false
    (judge
       [ (0, Event.Internal); (0, Event.Commit); (0, Event.Internal);
         (0, Event.Crash) ]
       ~activation:(0, 2));
  Alcotest.(check bool) "a commit after another process's crash does not"
    false
    (judge ~nprocs:2
       [ (0, Event.Internal); (1, Event.Crash); (0, Event.Commit);
         (0, Event.Crash) ]
       ~activation:(0, 1));
  Alcotest.(check bool) "another process's commit does not" false
    (judge ~nprocs:2
       [ (0, Event.Internal); (1, Event.Commit); (0, Event.Crash) ]
       ~activation:(0, 1));
  Alcotest.(check bool) "with no crash, a later commit counts" true
    (judge
       [ (0, Event.Internal); (0, Event.Internal); (0, Event.Visible 3);
         (0, Event.Commit) ]
       ~activation:(0, 1));
  Alcotest.(check bool) "a 2PC round commit counts" true
    (judge ~nprocs:2
       [ (0, Event.Internal); (1, Event.Commit_round 4);
         (0, Event.Commit_round 4); (0, Event.Crash) ]
       ~activation:(0, 1))

(* --- consistency ----------------------------------------------------------- *)

let test_consistency_exact () =
  Alcotest.(check bool) "identical sequences" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ] ~observed:[ 1; 2; 3 ])

let test_consistency_duplicates_ok () =
  (* a rollback may repeat already-output events *)
  Alcotest.(check bool) "duplicates tolerated" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ]
       ~observed:[ 1; 2; 2; 3 ]);
  Alcotest.(check bool) "repeat of older output tolerated" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ]
       ~observed:[ 1; 2; 1; 2; 3 ])

let test_consistency_wrong_value () =
  (match
     Consistency.check ~reference:[ 1; 2; 3 ] ~observed:[ 1; 9; 3 ]
   with
  | Consistency.Extra { position = 1; value = 9 } -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Consistency.pp_verdict v);
  Alcotest.(check bool) "flagged" false
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ] ~observed:[ 1; 9; 3 ])

let test_consistency_truncation () =
  match Consistency.check ~reference:[ 1; 2; 3 ] ~observed:[ 1 ] with
  | Consistency.Truncated { missing = 2 } -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Consistency.pp_verdict v

(* --- protocol space -------------------------------------------------------- *)

let test_protocol_space_axis_rule () =
  (* §2.6: every horizontal-axis protocol prevents surviving propagation
     failures; none of the visible-effort protocols do. *)
  List.iter
    (fun name ->
      let p =
        List.find
          (fun q -> q.Protocol_space.name = name)
          Protocol_space.all
      in
      Alcotest.(check bool) (name ^ " on axis") true
        (Protocol_space.prevents_propagation_recovery p))
    [ "CAND"; "CAND-LOG"; "SBL"; "Targon/32"; "Hypervisor" ];
  List.iter
    (fun name ->
      let p =
        List.find (fun q -> q.Protocol_space.name = name) Protocol_space.all
      in
      Alcotest.(check bool) (name ^ " off axis") false
        (Protocol_space.prevents_propagation_recovery p))
    [ "CPVS"; "CBNDVS"; "CPV-2PC"; "Manetho"; "Coord-ckpt" ]

let test_protocol_space_executable_links () =
  (* Manetho and Optimistic logging are no longer literature-only: their
     points carry the name of the executable spec, which must exist and
     sit at the same coordinates (same declared effort on both axes). *)
  let linked =
    List.filter
      (fun p -> p.Protocol_space.executable <> None)
      Protocol_space.literature
  in
  Alcotest.(check (list string))
    "exactly the message-logging pair is linked"
    [ "OPTIMISTIC"; "CAUSAL-LOG" ]
    (List.filter_map (fun p -> p.Protocol_space.executable) linked);
  List.iter
    (fun p ->
      match p.Protocol_space.executable with
      | None -> ()
      | Some name -> (
          match Protocols.by_name name with
          | None -> Alcotest.failf "%s links to unknown spec %s"
                      p.Protocol_space.name name
          | Some spec ->
              Alcotest.(check (float 1e-9))
                (p.Protocol_space.name ^ " nd effort agrees")
                p.Protocol_space.nd_effort spec.Protocol.nd_effort;
              Alcotest.(check (float 1e-9))
                (p.Protocol_space.name ^ " visible effort agrees")
                p.Protocol_space.visible_effort spec.Protocol.visible_effort))
    Protocol_space.literature;
  (* and both linked specs are part of the executed extended panel *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " executed") true
        (List.exists
           (fun p -> p.Protocol_space.name = name)
           Protocol_space.executed))
    [ "CAUSAL-LOG"; "OPTIMISTIC" ]

(* Hand-built message-logging traces: the exact commit shapes the
   dependent-commit protocol emits, judged by the Save-work oracle. *)

let test_orphan_trace_dependent_round_upholds () =
  (* p0 draws unlogged ND and sends; p1's state is tainted by p0's draw.
     Before p1's visible, a dependent-commit round covers both: p0
     commits the round and acks (Send/Receive edge), then p1 commits the
     same round.  Save-work holds. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:0 (Event.Commit_round 0));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = -1 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = -1 }));
  ignore (Trace.record t ~pid:1 (Event.Commit_round 0));
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "dependent round covers the taint" true
    (Save_work.holds t)

let test_orphan_trace_blind_commit_violates () =
  (* Same taint, but p1 commits alone — exactly what an orphan looks
     like: its commit does not cover p0's unlogged draw, so a crash of
     p0 after the visible loses non-determinism the output depends on. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:1 Event.Commit);
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "blind local commit leaves an orphan" false
    (Save_work.holds t);
  Alcotest.(check bool) "at least one visible violation" true
    (Save_work.visible_violations t <> [])

let test_orphan_trace_logged_determinant_exempt () =
  (* Causal logging's other half: if the determinant is logged at the
     receive and the ND itself is logged, no commit is needed at all. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 ~logged:true (Event.Nd Event.Fixed));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "logged determinants need no commit" true
    (Save_work.holds t)

let test_state_graph_dot () =
  let g =
    State_graph.make ~nstates:3
      ~edges:[ (0, 1, State_graph.Transient_nd); (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ]
  in
  let dot = State_graph.to_dot ~dangerous:(Dangerous_paths.dangerous_edges g) g in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "crash state filled" true (contains "fillcolor=black");
  Alcotest.(check bool) "dangerous edge red" true (contains "color=red");
  Alcotest.(check bool) "nd label" true (contains "ND")

let test_protocols_by_name () =
  Alcotest.(check bool) "lookup cand" true
    (Protocols.by_name "cand" <> None);
  Alcotest.(check bool) "lookup cpv-2pc" true
    (Protocols.by_name "CPV-2PC" <> None);
  Alcotest.(check bool) "unknown" true (Protocols.by_name "nope" = None)

(* --- qcheck properties ------------------------------------------------------ *)

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (3, return Event.Internal);
        (3, return (Event.Nd Event.Transient));
        (2, return (Event.Nd Event.Fixed));
        (3, map (fun v -> Event.Visible v) (int_bound 100));
        (3, return Event.Commit);
      ])

let arb_trace =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 40) gen_kind
      >>= fun kinds ->
      return
        (let t = Trace.create ~nprocs:1 in
         List.iter (fun k -> ignore (Trace.record t ~pid:0 k)) kinds;
         t))
    ~print:(fun t -> Format.asprintf "%a" Trace.pp t)

(* Committing after every event always upholds Save-work. *)
let prop_commit_all_upholds =
  QCheck.Test.make ~name:"commit-after-everything upholds save-work"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 30) gen_kind)
       ~print:(fun ks ->
         String.concat ";" (List.map Event.kind_to_string ks)))
    (fun kinds ->
      let t = Trace.create ~nprocs:1 in
      List.iter
        (fun k ->
          ignore (Trace.record t ~pid:0 k);
          ignore (Trace.record t ~pid:0 Event.Commit))
        kinds;
      Save_work.holds t)

(* The checker is monotone: adding a commit never introduces a violation. *)
let prop_violations_subset_of_nd =
  QCheck.Test.make ~name:"every violation names an unlogged nd event"
    ~count:200 arb_trace (fun t ->
      List.for_all
        (fun v -> Event.is_nd v.Save_work.nd)
        (Save_work.violations t))

(* Happens-before is a strict partial order on any recorded trace. *)
let prop_hb_irreflexive_transitive =
  QCheck.Test.make ~name:"happens-before is a strict order" ~count:100
    arb_trace (fun t ->
      let evs = Array.of_list (Trace.events t) in
      let n = Array.length evs in
      let ok = ref true in
      for i = 0 to n - 1 do
        if happens_before evs.(i) evs.(i) then ok := false
      done;
      (* same-process events are totally ordered by index *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if not (happens_before evs.(i) evs.(j)) then ok := false
        done
      done;
      !ok)

(* A consistent observation is still consistent after duplicating any
   already-seen prefix element. *)
let prop_consistency_duplicate_closure =
  QCheck.Test.make ~name:"duplicating seen output preserves consistency"
    ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 10) (0 -- 20))
              (0 -- 10))
    (fun (reference, k) ->
      QCheck.assume (reference <> []);
      let observed =
        (* duplicate the element at position k mod len, in place *)
        let arr = Array.of_list reference in
        let i = k mod Array.length arr in
        Array.to_list (Array.sub arr 0 (i + 1))
        @ [ arr.(i) ]
        @ Array.to_list (Array.sub arr (i + 1) (Array.length arr - i - 1))
      in
      Consistency.is_consistent ~reference ~observed)

(* Dangerous-path coloring: a colored edge always has a path of colored
   edges leading to a crash state (soundness on random DAG-ish graphs). *)
let prop_dangerous_reaches_crash =
  let gen =
    QCheck.Gen.(
      int_range 3 10 >>= fun nstates ->
      list_size (int_bound 20)
        (triple (int_bound (nstates - 1)) (int_bound (nstates - 1))
           (int_bound 2))
      >>= fun raw ->
      int_bound (nstates - 1) >>= fun crash ->
      let edges =
        List.map
          (fun (s, d, k) ->
            ( s,
              d,
              match k with
              | 0 -> State_graph.Det
              | 1 -> State_graph.Transient_nd
              | _ -> State_graph.Fixed_nd ))
          raw
      in
      return (State_graph.make ~nstates ~edges ~crash_states:[ crash ]))
  in
  QCheck.Test.make ~name:"colored edges reach a crash through colored edges"
    ~count:200
    (QCheck.make gen ~print:(fun g ->
         Printf.sprintf "graph with %d states" g.State_graph.nstates))
    (fun g ->
      let colored = Dangerous_paths.dangerous_edges g in
      let nedges = State_graph.nedges g in
      (* BFS over colored edges from each colored edge's destination *)
      let reaches_crash from_state =
        let seen = Array.make g.State_graph.nstates false in
        let rec go s =
          if State_graph.is_crash_state g s then true
          else if seen.(s) then false
          else begin
            seen.(s) <- true;
            List.exists
              (fun e ->
                colored.(e.State_graph.id) && go e.State_graph.dst)
              (State_graph.out_edges g s)
          end
        in
        go from_state
      in
      let ok = ref true in
      for i = 0 to nedges - 1 do
        if colored.(i) then begin
          let e = State_graph.edge g i in
          if
            (not (State_graph.is_crash_state g e.State_graph.dst))
            && not (reaches_crash e.State_graph.dst)
          then ok := false
        end
      done;
      !ok)

(* ---- hand-computed coloring: fixed vs transient ND (paper §2.5) ----

   The user-input machine: a deterministic prologue, a fixed-ND input
   branch, then a timing-dependent branch on the input=A side where one
   arm crashes.

        0 --det--> 1 --fixed(A)--> 2 --nd--> 4 --det--> [6]   (crash)
                   |               `--nd--> 5 --det--> 7      (ok)
                   `--fixed(B)--> 3 --det--> 7                (ok)

   When the inner branch is transient, danger stays local: a retry can
   take the safe arm, so only the edge into the all-exits-crash state 4
   is colored.  When the inner branch is fixed, the redraw repeats the
   crash arm, so danger propagates backwards through every fixed edge
   all the way to the initial state. *)

let input_machine inner =
  State_graph.make ~nstates:8
    ~edges:
      [
        (0, 1, State_graph.Det);
        (* e0 *)
        (1, 2, State_graph.Fixed_nd);
        (* e1: input = A *)
        (1, 3, State_graph.Fixed_nd);
        (* e2: input = B *)
        (2, 4, inner);
        (* e3: crash-bound arm *)
        (2, 5, inner);
        (* e4: safe arm *)
        (4, 6, State_graph.Det);
        (* e5: the crash event *)
        (3, 7, State_graph.Det);
        (* e6 *)
        (5, 7, State_graph.Det);
        (* e7 *)
      ]
    ~crash_states:[ 6 ]

let check_coloring g ~edges ~states =
  let colored = Dangerous_paths.dangerous_edges g in
  Array.iteri
    (fun i want ->
      Alcotest.(check bool) (Printf.sprintf "edge %d" i) want colored.(i))
    edges;
  let doomed = Dangerous_paths.doomed_states g in
  Array.iteri
    (fun s want ->
      Alcotest.(check bool) (Printf.sprintf "state %d" s) want doomed.(s))
    states

let test_coloring_transient_inner () =
  check_coloring
    (input_machine State_graph.Transient_nd)
    ~edges:[| false; false; false; true; false; true; false; false |]
    ~states:[| false; false; false; false; true; false; true; false |]

let test_coloring_fixed_inner () =
  check_coloring
    (input_machine State_graph.Fixed_nd)
    ~edges:[| true; true; false; true; false; true; false; false |]
    ~states:[| true; true; true; false; true; false; true; false |]

let test_coloring_receive_classification () =
  (* same machine with the inner branch a receive: its danger footprint
     is exactly the transient machine's or the fixed machine's,
     depending on how the multi-process rule classifies the receive *)
  let g = input_machine (State_graph.Receive_nd 1) in
  check_coloring g (* default: receives treated as transient *)
    ~edges:[| false; false; false; true; false; true; false; false |]
    ~states:[| false; false; false; false; true; false; true; false |];
  let fixed _ = Event.Fixed in
  let colored = Dangerous_paths.dangerous_edges ~receive_class:fixed g in
  Alcotest.(check (list bool))
    "fixed-classified receive == fixed machine"
    (Array.to_list
       (Dangerous_paths.dangerous_edges
          (input_machine State_graph.Fixed_nd)))
    (Array.to_list colored);
  let doomed = Dangerous_paths.doomed_states ~receive_class:fixed g in
  Alcotest.(check (list bool))
    "doomed states likewise"
    (Array.to_list
       (Dangerous_paths.doomed_states (input_machine State_graph.Fixed_nd)))
    (Array.to_list doomed)

(* ---- Vclock laws (qcheck) ---- *)

let clock_of_list l =
  let t = Vclock.create (List.length l) in
  List.iteri
    (fun i n ->
      for _ = 1 to n do
        Vclock.tick t i
      done)
    l;
  t

let arb_vclock =
  QCheck.make
    ~print:(fun c -> Vclock.to_string c)
    QCheck.Gen.(map clock_of_list (list_repeat 3 (int_bound 5)))

let prop_vclock_antisymmetric =
  QCheck.Test.make ~name:"vclock leq antisymmetric, lt asymmetric" ~count:500
    QCheck.(pair arb_vclock arb_vclock)
    (fun (a, b) ->
      (if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)
      && if Vclock.lt a b then not (Vclock.lt b a) else true)

let prop_vclock_merge_lub =
  QCheck.Test.make ~name:"vclock merge is the least upper bound" ~count:500
    QCheck.(triple arb_vclock arb_vclock arb_vclock)
    (fun (a, b, c) ->
      let m = Vclock.copy a in
      Vclock.merge_into ~into:m b;
      Vclock.leq a m && Vclock.leq b m
      (* least: m is below exactly the common upper bounds *)
      && Vclock.leq m c = (Vclock.leq a c && Vclock.leq b c))

let prop_vclock_concurrency_symmetric =
  QCheck.Test.make ~name:"vclock concurrency is symmetric" ~count:500
    QCheck.(pair arb_vclock arb_vclock)
    (fun (a, b) ->
      let conc x y =
        (not (Vclock.lt x y)) && (not (Vclock.lt y x)) && not (Vclock.equal x y)
      in
      conc a b = conc b a)

(* ---- Save-work: the all-pairs reference oracle (qcheck differential) ---- *)

(* The Save-work checker as it stood before the per-trace index: every
   ND against every target, every commit against every target.  Kept
   verbatim as the test-time reference the indexed oracle must match
   exactly, order included. *)
module Save_work_reference = struct
  open Save_work

  (* Does some commit on [nd.pid], later than [nd], happen-before — or sit
     atomic with — [target]?  "Atomic with" (the theorem's parenthetical)
     covers the commit being the target itself, the two events belonging
     to the same coordinated (2PC) round, and — since every commit of a
     round is atomic with every other — a round-mate commit that
     happens-before the target.

     Whether a commit reaches a target is independent of the ND event
     under test, so the check factors: precompute, per (process, target),
     the largest index of a reaching commit, and "covered" collapses to
     one integer comparison per (nd, target) pair.  The naive form —
     rescanning the process's commits for every pair — is quadratic in
     the trace and takes tens of seconds on an xpilot run. *)
  let violations_against trace ~targets =
    let nds = Trace.filter trace Event.is_nd in
    let all_commits = Trace.filter trace Event.is_commit in
    let nprocs = Trace.nprocs trace in
    let commits_by_pid = Array.make nprocs [] in
    List.iter
      (fun (c : Event.t) ->
        commits_by_pid.(c.pid) <- c :: commits_by_pid.(c.pid))
      all_commits;
    let reaches (c : Event.t) (target : Event.t) =
      Event.equal c target
      || Event.atomic_with c target
      || happens_before c target
      ||
      match Event.commit_round c with
      | None -> false
      | Some _ ->
          List.exists
            (fun (c' : Event.t) ->
              Event.atomic_with c c'
              && (Event.equal c' target || happens_before c' target))
            all_commits
    in
    (* largest commit index per process reaching [target]; -1 if none *)
    let mr_cache = Hashtbl.create 64 in
    let max_reach (target : Event.t) =
      let key = (target.Event.pid, target.Event.index) in
      match Hashtbl.find_opt mr_cache key with
      | Some a -> a
      | None ->
          let a =
            Array.init nprocs (fun pid ->
                List.fold_left
                  (fun acc (c : Event.t) ->
                    if c.index > acc && reaches c target then c.index else acc)
                  (-1) commits_by_pid.(pid))
          in
          Hashtbl.replace mr_cache key a;
          a
    in
    List.concat_map
      (fun nd ->
        List.filter_map
          (fun target ->
            let precedes =
              causally_precedes nd target && not (Event.equal nd target)
            in
            if precedes && (max_reach target).(nd.Event.pid) <= nd.Event.index
            then Some { nd; target }
            else None)
          targets)
      nds

  (* Violations of Save-work-visible: uncommitted ND events that causally
     precede a visible event. *)
  let visible_violations trace =
    violations_against trace ~targets:(Trace.filter trace Event.is_visible)

  (* Violations of Save-work-orphan: uncommitted ND events that causally
     precede a commit on another process (an orphan-creating dependence).
     Same-process commits can never be orphan-creating: a later commit on
     the same process commits the ND event itself. *)
  let orphan_violations trace =
    let targets = Trace.filter trace Event.is_commit in
    List.filter
      (fun v -> v.nd.Event.pid <> v.target.Event.pid)
      (violations_against trace ~targets)

  let violations trace = visible_violations trace @ orphan_violations trace

  let holds trace = violations trace = []

  (* A process is an orphan (§2.3, Figure 2) if it has committed a dependence
     on another process's non-deterministic event that has been lost: here,
     the ND event is "lost" when its process crashed without committing it. *)
  let orphans trace =
    let nprocs = Trace.nprocs trace in
    (* One streaming pass for crashed processes and per-process last
       commit index, instead of rescanning the history per ND event. *)
    let crashed = Array.make nprocs false in
    let last_commit = Array.make nprocs (-1) in
    Trace.iter trace (fun (e : Event.t) ->
        if Event.is_crash e then crashed.(e.pid) <- true
        else if Event.is_commit e && e.index > last_commit.(e.pid) then
          last_commit.(e.pid) <- e.index);
    let lost_nd =
      Trace.filter trace (fun (e : Event.t) ->
          Event.is_nd e && crashed.(e.pid) && last_commit.(e.pid) <= e.index)
    in
    let commits = Trace.filter trace Event.is_commit in
    List.sort_uniq compare
      (List.filter_map
         (fun (c : Event.t) ->
           if
             List.exists
               (fun nd ->
                 nd.Event.pid <> c.pid && causally_precedes nd c)
               lost_nd
           then Some c.pid
           else None)
         commits)
end

(* 2-4 processes; tags drawn from a small range so sends reuse tags and
   some receives name a tag never sent; round ids shared across
   processes with no message between the members. *)
let gen_multi_trace =
  QCheck.Gen.(
    int_range 2 4 >>= fun nprocs ->
    let logged = frequency [ (3, return false); (1, return true) ] in
    let step =
      int_bound (nprocs - 1) >>= fun pid ->
      frequency
        [
          (1, return (false, Event.Internal));
          (3, map (fun l -> (l, Event.Nd Event.Transient)) logged);
          (2, map (fun l -> (l, Event.Nd Event.Fixed)) logged);
          ( 3,
            map2
              (fun dest tag -> (false, Event.Send { dest; tag }))
              (int_bound (nprocs - 1)) (int_bound 5) );
          ( 3,
            map3
              (fun l src tag -> (l, Event.Receive { src; tag }))
              logged (int_bound (nprocs - 1)) (int_bound 7) );
          (3, map (fun v -> (false, Event.Visible v)) (int_bound 9));
          (3, return (false, Event.Commit));
          (2, map (fun r -> (false, Event.Commit_round r)) (int_bound 3));
          (1, return (false, Event.Crash));
        ]
      >|= fun (logged, kind) -> (pid, logged, kind)
    in
    list_size (int_bound 50) step >|= fun steps ->
    let t = Trace.create ~nprocs in
    List.iter
      (fun (pid, logged, kind) -> ignore (Trace.record t ~pid ~logged kind))
      steps;
    t)

let arb_multi_trace =
  QCheck.make gen_multi_trace ~print:(fun t -> Format.asprintf "%a" Trace.pp t)

let same_violations a b =
  List.equal
    (fun (u : Save_work.violation) (v : Save_work.violation) ->
      Event.equal u.nd v.nd && Event.equal u.target v.target)
    a b

let prop_save_work_differential =
  QCheck.Test.make ~name:"indexed save-work equals the all-pairs reference"
    ~count:500 arb_multi_trace (fun t ->
      let module R = Save_work_reference in
      let agree name got want =
        same_violations got want
        || QCheck.Test.fail_reportf "%s: got [%a] want [%a]" name
             (Format.pp_print_list Save_work.pp_violation)
             got
             (Format.pp_print_list Save_work.pp_violation)
             want
      in
      let agree_on name pp got want =
        got = want
        || QCheck.Test.fail_reportf "%s: got %a want %a" name pp got pp want
      in
      agree "visible" (Save_work.visible_violations t) (R.visible_violations t)
      && agree "orphan" (Save_work.orphan_violations t) (R.orphan_violations t)
      && agree "both" (Save_work.violations t) (R.violations t)
      && agree_on "holds" Format.pp_print_bool (Save_work.holds t) (R.holds t)
      && agree_on "orphans"
           (fun ppf l ->
             Format.fprintf ppf "[%a]"
               Format.(pp_print_list ~pp_sep:pp_print_space pp_print_int)
               l)
           (Save_work.orphans t) (R.orphans t))

(* The lemma the index rests on: for distinct events of one trace,
   happens-before is one clock component. *)
let prop_hb_one_component =
  QCheck.Test.make ~name:"a hb b iff a.index < b.vc.(a.pid)" ~count:300
    arb_multi_trace (fun t ->
      let evs = Trace.events t in
      List.for_all
        (fun (a : Event.t) ->
          List.for_all
            (fun (b : Event.t) ->
              Event.equal a b
              || happens_before a b = (a.index < Vclock.get b.vc a.pid))
            evs)
        evs)

(* ---- Trace.prefix: a view reads as a copy taken at its watermark ---- *)

(* The trace is re-recorded up to a random cut, where a view and a copy
   are taken; then the rest, plus sends that reuse each prefix send's tag
   and a send for each prefix receive that had none, go into the live
   trace.  The view must still read as the copy does. *)
let prop_prefix_view_is_copy =
  QCheck.Test.make ~name:"a prefix view reads as a copy at its watermark"
    ~count:300
    QCheck.(pair arb_multi_trace (int_bound 1000))
    (fun (t, k) ->
      let nprocs = Trace.nprocs t and evs = Trace.events t in
      let cut = k mod (List.length evs + 1) in
      let live = Trace.create ~nprocs in
      let replay (e : Event.t) =
        ignore (Trace.record live ~pid:e.pid ~logged:e.logged e.kind)
      in
      List.iteri (fun i e -> if i < cut then replay e) evs;
      let view = Trace.prefix live and copy = Trace.copy live in
      List.iteri (fun i e -> if i >= cut then replay e) evs;
      List.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Send { dest; tag } ->
              ignore
                (Trace.record live ~pid:dest (Event.Send { dest = e.pid; tag }))
          | Event.Receive { src; tag } when Trace.matching_send copy e = None
            ->
              ignore
                (Trace.record live ~pid:src (Event.Send { dest = e.pid; tag }))
          | _ -> ())
        (Trace.events copy);
      let agree name ok =
        ok || QCheck.Test.fail_reportf "cut %d: %s differs" cut name
      in
      let pids = List.init nprocs Fun.id in
      let recvs = Trace.filter copy Event.is_receive in
      agree "length" (Trace.length view = Trace.length copy)
      && agree "events" (Trace.events view = Trace.events copy)
      && agree "events_of"
           (List.for_all
              (fun p -> Trace.events_of view p = Trace.events_of copy p)
              pids)
      && agree "next_index"
           (List.for_all
              (fun p -> Trace.next_index view p = Trace.next_index copy p)
              pids)
      && agree "get"
           (List.for_all
              (fun i -> Trace.get view i = Trace.get copy i)
              (List.init (Trace.length copy) Fun.id))
      && agree "get past the watermark"
           (match Trace.get view (Trace.length view) with
           | _ -> false
           | exception Invalid_argument _ -> true)
      && agree "matching_send"
           (List.for_all
              (fun r -> Trace.matching_send view r = Trace.matching_send copy r)
              recvs)
      && agree "Save_work.violations"
           (same_violations (Save_work.violations view)
              (Save_work.violations copy))
      && agree "record into the view"
           (match Trace.record view ~pid:0 Event.Internal with
           | _ -> false
           | exception Invalid_argument _ -> true))

(* A round commit covers an ND through its round-mate: p0's round commit
   comes after the send, so only atomicity with p1's member reaches the
   visible. *)
let test_save_work_round_mate_covers () =
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 1 }));
  ignore (Trace.record t ~pid:0 (Event.Commit_round 7));
  ignore (Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }));
  ignore (Trace.record t ~pid:1 (Event.Commit_round 7));
  ignore (Trace.record t ~pid:1 (Event.Visible 1));
  Alcotest.(check bool) "covered by the round" true (Save_work.holds t);
  ignore (Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }));
  ignore (Trace.record t ~pid:1 (Event.Visible 2));
  Alcotest.(check int) "the second receive is uncovered" 1
    (List.length (Save_work.visible_violations t))

(* ---- Consistency.check soundness (qcheck) ---- *)

(* an observation built only by replaying already-emitted values stays
   Consistent; exercised above by prop_consistency_duplicate_closure.
   Here: the two failure verdicts trigger exactly when they should. *)

let prop_consistency_extra_sound =
  QCheck.Test.make ~name:"foreign value convicts as Extra at its position"
    ~count:200
    QCheck.(pair (In_range.list 1 12 (0 -- 20)) (0 -- 20))
    (fun (reference, k) ->
      let fresh = List.fold_left max 0 reference + 1 in
      let i = k mod (List.length reference + 1) in
      let observed =
        List.filteri (fun j _ -> j < i) reference
        @ [ fresh ]
        @ List.filteri (fun j _ -> j >= i) reference
      in
      match Consistency.check ~reference ~observed with
      | Consistency.Extra { position; value } -> position = i && value = fresh
      | _ -> false)

let prop_consistency_truncated_sound =
  QCheck.Test.make ~name:"dropped tail convicts as Truncated with its size"
    ~count:200
    QCheck.(pair (In_range.int 1 12) (In_range.int 1 12))
    (fun (n, k) ->
      let k = ((k - 1) mod n) + 1 in
      (* distinct values: the greedy scan cannot confuse a prefix
         element for a duplicate *)
      let reference = List.init n (fun i -> (i * 7) + 3) in
      let observed = List.filteri (fun j _ -> j < n - k) reference in
      match Consistency.check ~reference ~observed with
      | Consistency.Truncated { missing } -> missing = k
      | _ -> false)

(* The scan [Consistency.check] replaced, kept verbatim as the reference
   its lazily built set of repeats must match. *)
module Consistency_reference = struct
  let check ~reference ~observed =
    let seen = Hashtbl.create 64 in
    let rec go pos obs ref_ =
      match (obs, ref_) with
      | [], [] -> Consistency.Consistent
      | [], r -> Consistency.Truncated { missing = List.length r }
      | o :: obs', r :: ref' when o = r ->
          Hashtbl.replace seen o ();
          go (pos + 1) obs' ref'
      | o :: obs', _ when Hashtbl.mem seen o -> go (pos + 1) obs' ref_
      | o :: _, _ -> Consistency.Extra { position = pos; value = o }
    in
    go 0 observed reference
end

(* An observed run built from the reference by a script: emit the next
   reference value, repeat an earlier output, skip a reference value,
   emit a value the reference never holds, or stop; then, or not, the
   rest of the reference.  Reference values repeat (drawn from 0..5). *)
type consistency_op = Emit | Repeat of int | Skip | Foreign of int | Stop

let gen_consistency_case =
  QCheck.Gen.(
    list_size (int_bound 12) (int_bound 5) >>= fun reference ->
    list_size (int_bound 16)
      (frequency
         [
           (4, return Emit);
           (2, map (fun i -> Repeat i) (int_bound 20));
           (1, return Skip);
           (1, map (fun v -> Foreign (6 + v)) (int_bound 3));
           (1, return Stop);
         ])
    >>= fun ops ->
    bool >|= fun complete ->
    let rec go out rest = function
      | [] -> (out, rest, complete)
      | Stop :: _ -> (out, rest, false)
      | Emit :: ops -> (
          match rest with
          | v :: rest' -> go (v :: out) rest' ops
          | [] -> go out rest ops)
      | Repeat i :: ops when out <> [] ->
          go (List.nth out (i mod List.length out) :: out) rest ops
      | Repeat _ :: ops -> go out rest ops
      | Skip :: ops -> go out (match rest with [] -> [] | _ :: r -> r) ops
      | Foreign v :: ops -> go (v :: out) rest ops
    in
    let out, rest, complete = go [] reference ops in
    (reference, List.rev out @ if complete then rest else []))

let prop_consistency_differential =
  let show = QCheck.Print.(list int) in
  QCheck.Test.make ~name:"consistency check equals the reference scan"
    ~count:1000
    (QCheck.make gen_consistency_case
       ~print:(fun (r, o) -> "reference " ^ show r ^ "\nobserved " ^ show o))
    (fun (reference, observed) ->
      let got = Consistency.check ~reference ~observed
      and want = Consistency_reference.check ~reference ~observed in
      got = want
      || QCheck.Test.fail_reportf "got %a, want %a" Consistency.pp_verdict got
           Consistency.pp_verdict want)

(* ---- Dangerous paths: the backward-recursion reference ---- *)

(* The three coloring rules as one backward pass in reverse topological
   order, instead of the library's iterate-to-fixpoint loop.  Valid on
   graphs whose edges all lead from a lower state to a higher one, as
   every victim-shaped graph below does. *)
let dangerous_edges_reference ~receive_class (g : State_graph.t) =
  let n = State_graph.nedges g in
  let color = Array.make n false in
  for i = 0 to n - 1 do
    if State_graph.is_crash_edge g (State_graph.edge g i) then
      color.(i) <- true
  done;
  let is_fixed (e : State_graph.edge) =
    match e.State_graph.kind with
    | State_graph.Fixed_nd -> true
    | State_graph.Receive_nd _ -> receive_class e = Event.Fixed
    | _ -> false
  in
  let edges = Array.init n (State_graph.edge g) in
  Array.sort (fun a b -> compare b.State_graph.dst a.State_graph.dst) edges;
  Array.iter
    (fun (e : State_graph.edge) ->
      if not color.(e.id) then begin
        let out = State_graph.out_edges g e.dst in
        let all =
          out <> [] && List.for_all (fun o -> color.(o.State_graph.id)) out
        in
        let fixed =
          List.exists (fun o -> color.(o.State_graph.id) && is_fixed o) out
        in
        if all || fixed then color.(e.id) <- true
      end)
    edges;
  (color, is_fixed)

(* Doomed states off the reference coloring: a crash state, or every
   exit colored, or a colored fixed-ND exit. *)
let doomed_reference ~receive_class (g : State_graph.t) =
  let color, is_fixed = dangerous_edges_reference ~receive_class g in
  Array.init g.State_graph.nstates (fun s ->
      let out = State_graph.out_edges g s in
      State_graph.is_crash_state g s
      || (out <> [] && List.for_all (fun o -> color.(o.State_graph.id)) out)
      || List.exists (fun o -> color.(o.State_graph.id) && is_fixed o) out)

(* The shape of the model checker's Lose-work graph: a chain of
   [links] (state [i] is "about to execute pc [i]"; a receive link
   carries the class the multi-process algorithm gave it), a
   deterministic exit from the last state to an absorbing "done" state,
   and a crash edge out of state [crash_pc]. *)
type victim_shape = {
  links : (State_graph.edge_kind * Event.nd_class) array;
  crash_pc : int;
}

let link_choices =
  [ (State_graph.Det, Event.Transient);
    (State_graph.Transient_nd, Event.Transient);
    (State_graph.Fixed_nd, Event.Transient);
    (State_graph.Receive_nd 0, Event.Transient);
    (State_graph.Receive_nd 0, Event.Fixed) ]

let victim_shape_to_string v =
  Printf.sprintf "[%s] crash at %d"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function
               | State_graph.Det, _ -> "det"
               | State_graph.Transient_nd, _ -> "transient"
               | State_graph.Fixed_nd, _ -> "fixed"
               | State_graph.Receive_nd _, Event.Transient -> "recv:transient"
               | State_graph.Receive_nd _, Event.Fixed -> "recv:fixed")
             v.links)))
    v.crash_pc

(* Every disagreement on one shape, under both crash classes: the
   library's coloring and doomed states against the reference, and
   transient-crash doom inside fixed-crash doom. *)
let victim_shape_failures v =
  let depth = Array.length v.links in
  let receive_class (e : State_graph.edge) =
    if e.State_graph.id < depth then snd v.links.(e.State_graph.id)
    else Event.Transient
  in
  let graph crash =
    State_graph.make ~nstates:(depth + 3)
      ~edges:
        (List.init depth (fun i -> (i, i + 1, fst v.links.(i)))
        @ [ (depth, depth + 2, State_graph.Det);
            (v.crash_pc, depth + 1, crash) ])
      ~crash_states:[ depth + 1 ]
  in
  let doomed_under (name, crash) =
    let g = graph crash in
    let doomed = Dangerous_paths.doomed_states ~receive_class g in
    let disagrees what =
      Printf.sprintf "%s crash: %s disagrees with the reference" name what
    in
    ( doomed,
      (if
         Dangerous_paths.dangerous_edges ~receive_class g
         <> fst (dangerous_edges_reference ~receive_class g)
       then [ disagrees "dangerous_edges" ]
       else [])
      @
      if doomed <> doomed_reference ~receive_class g then
        [ disagrees "doomed_states" ]
      else [] )
  in
  let doomed_t, fails_t =
    doomed_under ("transient", State_graph.Transient_nd)
  in
  let doomed_f, fails_f = doomed_under ("fixed", State_graph.Fixed_nd) in
  fails_t @ fails_f
  @ List.filter_map
      (fun s ->
        if doomed_t.(s) && not doomed_f.(s) then
          Some (Printf.sprintf "state %d doomed under transient crash only" s)
        else None)
      (List.init (depth + 3) Fun.id)

(* Exhaustive to depth 4: every link kind and receive class, every crash
   position, both crash classes. *)
let test_dangerous_paths_exhaustive () =
  let rec chains d =
    if d = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.map (fun l -> l :: rest) link_choices)
        (chains (d - 1))
  in
  let shapes = ref 0 in
  List.iter
    (fun depth ->
      List.iter
        (fun chain ->
          let links = Array.of_list chain in
          for crash_pc = 0 to depth do
            incr shapes;
            let v = { links; crash_pc } in
            match victim_shape_failures v with
            | [] -> ()
            | f :: _ -> Alcotest.failf "%s: %s" (victim_shape_to_string v) f
          done)
        (chains depth))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "shapes checked" 3711 !shapes

let prop_dangerous_paths_reference =
  let gen =
    QCheck.Gen.(
      int_range 5 14 >>= fun depth ->
      array_repeat depth (oneofl link_choices) >>= fun links ->
      int_bound depth >>= fun crash_pc -> return { links; crash_pc })
  in
  QCheck.Test.make ~name:"dangerous paths equal the recursive reference"
    ~count:300
    (QCheck.make gen ~print:victim_shape_to_string)
    (fun v ->
      match victim_shape_failures v with
      | [] -> true
      | fails -> QCheck.Test.fail_reportf "%s" (String.concat "; " fails))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_commit_all_upholds;
      prop_violations_subset_of_nd;
      prop_hb_irreflexive_transitive;
      prop_consistency_duplicate_closure;
      prop_dangerous_reaches_crash;
      prop_vclock_antisymmetric;
      prop_vclock_merge_lub;
      prop_vclock_concurrency_symmetric;
      prop_consistency_extra_sound;
      prop_consistency_truncated_sound;
    ]

let tests =
  [
    Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
    Alcotest.test_case "vclock size mismatch" `Quick
      test_vclock_size_mismatch;
    Alcotest.test_case "happens-before chain" `Quick
      test_happens_before_chain;
    Alcotest.test_case "concurrent events" `Quick test_concurrent_events;
    Alcotest.test_case "save-work violation" `Quick
      test_save_work_violation_detected;
    Alcotest.test_case "commit cures" `Quick test_save_work_commit_cures;
    Alcotest.test_case "logged nd exempt" `Quick
      test_save_work_logged_nd_exempt;
    Alcotest.test_case "late commit insufficient" `Quick
      test_save_work_commit_after_visible_insufficient;
    Alcotest.test_case "orphan (figure 2)" `Quick
      test_save_work_orphan_figure2;
    Alcotest.test_case "orphan cured" `Quick
      test_save_work_orphan_cured_by_sender_commit;
    Alcotest.test_case "figure 6 case A" `Quick test_figure6_case_a;
    Alcotest.test_case "figure 6 case B" `Quick test_figure6_case_b;
    Alcotest.test_case "figure 6 case C" `Quick test_figure6_case_c;
    Alcotest.test_case "nontrivial graph" `Quick
      test_dangerous_nontrivial_graph;
    Alcotest.test_case "receive classification" `Quick
      test_receive_classification;
    Alcotest.test_case "multi-process dangerous paths" `Quick
      test_multi_process_dangerous_paths;
    Alcotest.test_case "safe_to_commit" `Quick test_safe_to_commit_api;
    Alcotest.test_case "lose-work (figure 9)" `Quick test_lose_work_figure9;
    Alcotest.test_case "commit before nd safe" `Quick
      test_lose_work_commit_before_nd_safe;
    Alcotest.test_case "bohrbug" `Quick test_lose_work_bohrbug;
    Alcotest.test_case "consistency exact" `Quick test_consistency_exact;
    Alcotest.test_case "consistency duplicates" `Quick
      test_consistency_duplicates_ok;
    Alcotest.test_case "consistency wrong value" `Quick
      test_consistency_wrong_value;
    Alcotest.test_case "consistency truncation" `Quick
      test_consistency_truncation;
    Alcotest.test_case "protocol space axis rule" `Quick
      test_protocol_space_axis_rule;
    Alcotest.test_case "protocols by name" `Quick test_protocols_by_name;
    Alcotest.test_case "protocol space executable links" `Quick
      test_protocol_space_executable_links;
    Alcotest.test_case "orphan trace: dependent round upholds" `Quick
      test_orphan_trace_dependent_round_upholds;
    Alcotest.test_case "orphan trace: blind commit violates" `Quick
      test_orphan_trace_blind_commit_violates;
    Alcotest.test_case "orphan trace: logged determinant exempt" `Quick
      test_orphan_trace_logged_determinant_exempt;
    Alcotest.test_case "state graph dot export" `Quick test_state_graph_dot;
    Alcotest.test_case "coloring: transient inner branch" `Quick
      test_coloring_transient_inner;
    Alcotest.test_case "coloring: fixed inner branch" `Quick
      test_coloring_fixed_inner;
    Alcotest.test_case "coloring: receive classification" `Quick
      test_coloring_receive_classification;
    Alcotest.test_case "round-mate covers" `Quick
      test_save_work_round_mate_covers;
    Alcotest.test_case "table-1 criterion" `Quick
      test_lose_work_table1_criterion;
  ]

(* ---- Protocols: the closure-instance reference ---- *)

(* The protocols as they stood when each run built an opaque instance
   that kept its own "unlogged ND since commit" bits and cleared them in
   [note_commit].  Kept as the test-time reference the pure [react] plus
   the executor-owned bits ([Protocol.consult], cleared at each commit)
   must match reaction for reaction. *)
module Closure_reference = struct
  open Protocol

  type t = {
    react : pid:int -> event_info -> reaction;
    note_commit : pid:int -> unit;
  }

  let stateless react ~nprocs:_ = { react; note_commit = (fun ~pid:_ -> ()) }
  let commit_after_local = { no_reaction with commit_after = Some Local }
  let commit_before_local = { no_reaction with commit_before = Some Local }

  let commit_all =
    stateless (fun ~pid:_ info ->
        match info.kind with
        | Event.Crash -> no_reaction
        | _ -> commit_after_local)

  let no_commit = stateless (fun ~pid:_ _ -> no_reaction)

  let cand =
    stateless (fun ~pid:_ info ->
        if info_is_nd info then commit_after_local else no_reaction)

  let cand_log =
    stateless (fun ~pid:_ info ->
        if info_is_nd info then
          if info.loggable then { no_reaction with log = true }
          else commit_after_local
        else no_reaction)

  let cpvs =
    stateless (fun ~pid:_ info ->
        if info_is_visible info || info_is_send info then commit_before_local
        else no_reaction)

  let cbndvs ~log_loggable ~nprocs =
    let nd_since = Array.make nprocs false in
    {
      react =
        (fun ~pid info ->
          if info_is_nd info then
            if log_loggable && info.loggable then
              { no_reaction with log = true }
            else begin
              nd_since.(pid) <- true;
              no_reaction
            end
          else if (info_is_visible info || info_is_send info) && nd_since.(pid)
          then commit_before_local
          else no_reaction);
      note_commit = (fun ~pid -> nd_since.(pid) <- false);
    }

  let cpv_2pc =
    stateless (fun ~pid:_ info ->
        if info_is_visible info then
          { no_reaction with commit_before = Some Global }
        else no_reaction)

  let cbndv_2pc ~nprocs =
    let nd_since = Array.make nprocs false in
    {
      react =
        (fun ~pid info ->
          if info_is_nd info then begin
            nd_since.(pid) <- true;
            no_reaction
          end
          else if info_is_visible info && Array.exists (fun b -> b) nd_since
          then { no_reaction with commit_before = Some Global }
          else no_reaction);
      note_commit = (fun ~pid -> nd_since.(pid) <- false);
    }

  let sbl =
    stateless (fun ~pid:_ info ->
        match info.kind with
        | Event.Receive _ -> { no_reaction with log = true }
        | _ -> if info_is_nd info then commit_after_local else no_reaction)

  let manetho ~nprocs =
    let nd_since = Array.make nprocs false in
    {
      react =
        (fun ~pid info ->
          if info_is_nd info then
            if info.loggable then { no_reaction with log = true }
            else begin
              nd_since.(pid) <- true;
              no_reaction
            end
          else if info_is_visible info && Array.exists (fun b -> b) nd_since
          then { no_reaction with commit_before = Some Global }
          else no_reaction);
      note_commit = (fun ~pid -> nd_since.(pid) <- false);
    }

  let logging =
    stateless (fun ~pid:_ info ->
        if info_is_nd info then
          if info.loggable then { no_reaction with log = true } else no_reaction
        else if info_is_visible info then
          { no_reaction with commit_before = Some Dependent }
        else no_reaction)

  let cpvs_after ~nprocs =
    let inner = cpvs ~nprocs in
    {
      inner with
      react =
        (fun ~pid info ->
          let r = inner.react ~pid info in
          match r.commit_before with
          | Some scope ->
              { r with commit_before = None; commit_after = Some scope }
          | None -> r);
    }

  let by_name = function
    | "COMMIT-ALL" -> commit_all
    | "NO-COMMIT" -> no_commit
    | "CAND" -> cand
    | "CAND-LOG" -> cand_log
    | "CPVS" -> cpvs
    | "CBNDVS" -> cbndvs ~log_loggable:false
    | "CBNDVS-LOG" -> cbndvs ~log_loggable:true
    | "CPV-2PC" | "COORD-CKPT" -> cpv_2pc
    | "CBNDV-2PC" -> cbndv_2pc
    | "SBL" -> sbl
    | "MANETHO" -> manetho
    | "CAUSAL-LOG" | "OPTIMISTIC" -> logging
    | "CPVS!after" -> cpvs_after
    | n -> invalid_arg ("Closure_reference: no reference for " ^ n)
end

type protocol_step = React of int * Protocol.event_info | Committed of int

let gen_protocol_stream =
  QCheck.Gen.(
    int_range 1 4 >>= fun nprocs ->
    let pid = int_bound (nprocs - 1) in
    let info =
      frequency
        [
          ( 3,
            map2
              (fun c loggable -> { Protocol.kind = Event.Nd c; loggable })
              (oneofl [ Event.Transient; Event.Fixed ])
              bool );
          ( 2,
            map
              (fun src ->
                { Protocol.kind = Event.Receive { src; tag = 0 };
                  loggable = true })
              pid );
          ( 2,
            map
              (fun v -> { Protocol.kind = Event.Visible v; loggable = false })
              small_nat );
          ( 2,
            map
              (fun dest ->
                { Protocol.kind = Event.Send { dest; tag = 0 };
                  loggable = false })
              pid );
          (1, return { Protocol.kind = Event.Internal; loggable = false });
        ]
    in
    let step =
      frequency
        [
          (4, map2 (fun p i -> React (p, i)) pid info);
          (1, map (fun p -> Committed p) pid);
        ]
    in
    list_size (int_range 1 40) step >>= fun steps -> return (nprocs, steps))

let print_protocol_stream (nprocs, steps) =
  let step = function
    | React (p, i) ->
        Printf.sprintf "p%d %s%s" p (Event.kind_to_string i.Protocol.kind)
          (if i.Protocol.loggable then " loggable" else "")
    | Committed p -> Printf.sprintf "p%d commit" p
  in
  Printf.sprintf "%d procs: %s" nprocs
    (String.concat "; " (List.map step steps))

let pp_reaction (r : Protocol.reaction) =
  let scope = function
    | None -> "-"
    | Some Protocol.Local -> "local"
    | Some Protocol.Global -> "global"
    | Some Protocol.Dependent -> "dependent"
  in
  Printf.sprintf "{log=%b before=%s after=%s}" r.Protocol.log
    (scope r.Protocol.commit_before) (scope r.Protocol.commit_after)

let prop_protocols_match_closures =
  let specs =
    Protocols.all
    @ [ (Option.get (Ft_mc.Mutants.by_name "commit-after-visible"))
          .Ft_mc.Mutants.spec ]
  in
  QCheck.Test.make ~name:"pure protocols equal the closure instances"
    ~count:500
    (QCheck.make gen_protocol_stream ~print:print_protocol_stream)
    (fun (nprocs, steps) ->
      List.for_all
        (fun (spec : Protocol.spec) ->
          let inst =
            Closure_reference.by_name spec.Protocol.spec_name ~nprocs
          in
          let nd_since = Array.make nprocs false in
          List.for_all
            (fun (i, step) ->
              match step with
              | Committed pid ->
                  inst.Closure_reference.note_commit ~pid;
                  nd_since.(pid) <- false;
                  true
              | React (pid, info) ->
                  let want = inst.Closure_reference.react ~pid info in
                  let got = Protocol.consult spec ~nd_since ~pid info in
                  got = want
                  || QCheck.Test.fail_reportf "%s, step %d: got %s, want %s"
                       spec.Protocol.spec_name i (pp_reaction got)
                       (pp_reaction want))
            (List.mapi (fun i s -> (i, s)) steps))
        specs)

(* Run alone, at a fixed seed, by CI's "Oracle reference differentials"
   step: [QCHECK_SEED=n test_core.exe test reference]. *)
let differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_save_work_differential; prop_hb_one_component;
      prop_prefix_view_is_copy; prop_consistency_differential;
      prop_protocols_match_closures ]
  @ [
      Alcotest.test_case "dangerous paths to depth 4" `Quick
        test_dangerous_paths_exhaustive;
      QCheck_alcotest.to_alcotest prop_dangerous_paths_reference;
    ]

let () =
  Alcotest.run "ft_core"
    [
      ("theory", tests);
      ("properties", qcheck_tests);
      ("reference", differential_tests);
    ]
