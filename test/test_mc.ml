(* The bounded model checker (Ft_mc): honest protocols exhaust the
   bound clean, every mutant dies with a shrunk replayable repro,
   memoization does not change verdicts, sweeps resume from a warm
   store, and the abstract checker's verdicts cross-check against the
   real runtime engine. *)

open Ft_core

let program ~depth = Ft_mc.Model.default_program ~nprocs:2 ~depth

(* --- honest protocols ----------------------------------------------------- *)

let test_honest_clean () =
  let program = program ~depth:5 in
  List.iter
    (fun spec ->
      let s =
        Ft_mc.Checker.check ~spec ~defect:Ft_mc.Model.Honest ~program ()
      in
      Alcotest.(check int)
        (spec.Protocol.spec_name ^ " violations")
        0
        (List.length s.Ft_mc.Checker.violations);
      Alcotest.(check bool)
        (spec.Protocol.spec_name ^ " explored something")
        true
        (s.Ft_mc.Checker.nodes > 10 && s.Ft_mc.Checker.runs > 30))
    Protocols.figure8_extended

(* The exploration itself is deterministic: nodes, runs and steps per
   protocol at the 2x5 and 2x6 bounds are pinned, so a change to the
   model, the menu or the memo shows up as a count diff. *)
let honest_counts =
  [
    ( 5,
      [
        ("CAND", (33, 217, 2358));
        ("CAND-LOG", (33, 191, 2395));
        ("CPVS", (33, 201, 2316));
        ("CBNDVS", (33, 191, 2428));
        ("CBNDVS-LOG", (33, 191, 2428));
        ("CPV-2PC", (61, 396, 4492));
        ("CBNDV-2PC", (54, 345, 3985));
        ("CAUSAL-LOG", (33, 191, 2150));
        ("OPTIMISTIC", (33, 191, 2150));
      ] );
    ( 6,
      [
        ("CAND", (58, 368, 4740));
        ("CAND-LOG", (58, 334, 5330));
        ("CPVS", (58, 374, 5033));
        ("CBNDVS", (58, 362, 5188));
        ("CBNDVS-LOG", (58, 334, 5363));
        ("CPV-2PC", (147, 1128, 14650));
        ("CBNDV-2PC", (126, 934, 12267));
        ("CAUSAL-LOG", (60, 374, 4988));
        ("OPTIMISTIC", (60, 392, 5149));
      ] );
  ]

let test_honest_counts () =
  List.iter
    (fun (depth, expected) ->
      let program = program ~depth in
      Alcotest.(check (list (pair string (triple int int int))))
        (Printf.sprintf "nodes, runs, steps at 2x%d" depth)
        expected
        (List.map
           (fun spec ->
             let s =
               Ft_mc.Checker.check ~spec ~defect:Ft_mc.Model.Honest ~program
                 ()
             in
             ( spec.Protocol.spec_name,
               ( s.Ft_mc.Checker.nodes,
                 s.Ft_mc.Checker.runs,
                 s.Ft_mc.Checker.steps ) ))
           Protocols.figure8_extended))
    honest_counts

(* The memo's partition of the perfbench mc workload: the default 3x3
   program's sharded jobs under every Figure 8 protocol, nodes, runs,
   memo hits and steps summed per protocol.  A state key that merges
   more or fewer states moves the memo column. *)
let memo_partition_3x3 =
  [
    ("CAND", (601, 4538, 218, 44672));
    ("CAND-LOG", (601, 4502, 218, 44762));
    ("CPVS", (601, 4952, 218, 49089));
    ("CBNDVS", (601, 4640, 218, 47532));
    ("CBNDVS-LOG", (601, 4640, 218, 47532));
    ("CPV-2PC", (1627, 18846, 86, 180184));
    ("CBNDV-2PC", (1611, 17582, 102, 170132));
    ("CAUSAL-LOG", (601, 4714, 218, 46863));
    ("OPTIMISTIC", (601, 4714, 218, 46863));
  ]

let test_memo_partition_3x3 () =
  let program = Ft_mc.Model.default_program ~nprocs:3 ~depth:3 in
  let quad = Alcotest.(pair (pair int int) (pair int int)) in
  Alcotest.(check (list (pair string quad)))
    "nodes, runs, memo hits, steps at 3x3"
    (List.map
       (fun (name, (n, r, m, s)) -> (name, ((n, r), (m, s))))
       memo_partition_3x3)
    (List.map
       (fun spec ->
         let s =
           List.fold_left
             (fun acc (j : Ft_exp.Job.t) ->
               match Ft_mc.Checker.stats_of_value (j.Ft_exp.Job.run ()) with
               | Some s -> Ft_mc.Checker.add_stats acc s
               | None -> Alcotest.fail ("undecodable row " ^ j.Ft_exp.Job.key))
             Ft_mc.Checker.zero_stats
             (Ft_mc.Checker.jobs
                ~specs:[ (spec, Ft_mc.Model.Honest) ]
                ~program ())
         in
         ( spec.Protocol.spec_name,
           ( (s.Ft_mc.Checker.nodes, s.Ft_mc.Checker.runs),
             (s.Ft_mc.Checker.memo_hits, s.Ft_mc.Checker.steps) ) ))
       Protocols.figure8_extended)

let test_honest_default_bound () =
  (* the issue's default bound: 2 procs x 6 events, all crash points *)
  let program = program ~depth:6 in
  let s =
    Ft_mc.Checker.check ~spec:Protocols.cpvs ~defect:Ft_mc.Model.Honest
      ~program ()
  in
  Alcotest.(check int) "cpvs clean at 2x6" 0
    (List.length s.Ft_mc.Checker.violations);
  Alcotest.(check bool) "memoization pruned" true
    (s.Ft_mc.Checker.memo_hits > 0)

let test_logging_default_bound () =
  (* the acceptance bound for the message-logging pair: 2 procs x 6
     events, every schedule x crash point, all three oracles clean *)
  let program = program ~depth:6 in
  List.iter
    (fun spec ->
      let s =
        Ft_mc.Checker.check ~spec ~defect:Ft_mc.Model.Honest ~program ()
      in
      Alcotest.(check (list string))
        (spec.Protocol.spec_name ^ " clean at 2x6")
        []
        (List.map
           (fun (v : Ft_mc.Checker.violation) -> v.Ft_mc.Checker.v_detail)
           s.Ft_mc.Checker.violations);
      Alcotest.(check bool)
        (spec.Protocol.spec_name ^ " explored the bound")
        true
        (s.Ft_mc.Checker.nodes > 50 && s.Ft_mc.Checker.runs > 150))
    Protocols.message_logging

let test_model_deterministic () =
  let program = program ~depth:5 in
  (* the post-prefix key of a prefix that then crashes, and the run *)
  let run () =
    let st =
      Ft_mc.Model.start ~spec:Protocols.cand_log
        ~defect:Ft_mc.Model.Drop_log ~program
    in
    List.iter (Ft_mc.Model.advance st) [ 0; 0; 0; 1; 1 ];
    let key = Ft_mc.Model.state_key st in
    (key, Ft_mc.Model.finish st (Ft_mc.Model.Stop 0))
  in
  let ka, a = run () and kb, b = run () in
  Alcotest.(check string) "state key" ka kb;
  Alcotest.(check (list int)) "observed" a.Ft_mc.Model.observed
    b.Ft_mc.Model.observed;
  Alcotest.(check (list int)) "reference"
    (Lazy.force a.Ft_mc.Model.reference)
    (Lazy.force b.Ft_mc.Model.reference)

(* --- the mutant suite ----------------------------------------------------- *)

let test_mutants_killed () =
  let default = program ~depth:6 in
  List.iter
    (fun m ->
      (* a mutant may bring its own program: some kills need a shape the
         default menus cannot express (the 3-process causal chain) *)
      let program =
        Option.value m.Ft_mc.Mutants.program ~default
      in
      let s =
        Ft_mc.Checker.check ~lose_work:false ~spec:m.Ft_mc.Mutants.spec
          ~defect:m.Ft_mc.Mutants.defect ~program ()
      in
      match s.Ft_mc.Checker.violations with
      | [] -> Alcotest.failf "mutant %s survived" m.Ft_mc.Mutants.mutant_name
      | v :: _ ->
          (* shrink, and verify the minimum still fails the same oracle *)
          let r =
            Ft_mc.Shrink.minimize ~lose_work:false ~spec:m.Ft_mc.Mutants.spec
              ~defect:m.Ft_mc.Mutants.defect ~program v
          in
          Alcotest.(check bool)
            (m.Ft_mc.Mutants.mutant_name ^ " shrunk no longer")
            true
            (List.length r.Ft_mc.Shrink.s_prefix
            <= List.length v.Ft_mc.Checker.v_prefix);
          let still =
            Ft_mc.Checker.check_one ~lose_work:false
              ~spec:m.Ft_mc.Mutants.spec ~defect:m.Ft_mc.Mutants.defect
              ~program:r.Ft_mc.Shrink.s_program
              ~prefix:r.Ft_mc.Shrink.s_prefix ~crash:r.Ft_mc.Shrink.s_crash ()
          in
          Alcotest.(check bool)
            (m.Ft_mc.Mutants.mutant_name ^ " shrunk still fails")
            true
            (List.exists
               (fun (x : Ft_mc.Checker.violation) ->
                 x.Ft_mc.Checker.v_oracle = r.Ft_mc.Shrink.s_oracle)
               still))
    Ft_mc.Mutants.all

let test_mutant_suite_shape () =
  (* the suite auto-extends: both logging-defect mutants are registered
     and target the executable message-logging specs, and the
     nested-failure pair rides with its own programs *)
  Alcotest.(check int) "ten mutants" 10 (List.length Ft_mc.Mutants.all);
  let m = Option.get (Ft_mc.Mutants.by_name "drop-dependency-vector") in
  Alcotest.(check string) "dv mutant hosts CAUSAL-LOG" "CAUSAL-LOG"
    m.Ft_mc.Mutants.spec.Protocol.spec_name;
  let m = Option.get (Ft_mc.Mutants.by_name "commit-without-orphan-kill") in
  Alcotest.(check string) "orphan mutant hosts OPTIMISTIC" "OPTIMISTIC"
    m.Ft_mc.Mutants.spec.Protocol.spec_name;
  let m = Option.get (Ft_mc.Mutants.by_name "resume-cascade-from-scratch") in
  Alcotest.(check string) "resume mutant hosts OPTIMISTIC" "OPTIMISTIC"
    m.Ft_mc.Mutants.spec.Protocol.spec_name;
  Alcotest.(check int) "resume mutant brings the 3-proc chain" 3
    (Array.length (Option.get m.Ft_mc.Mutants.program));
  let m = Option.get (Ft_mc.Mutants.by_name "gc-live-determinant") in
  Alcotest.(check string) "gc mutant hosts CAUSAL-LOG" "CAUSAL-LOG"
    m.Ft_mc.Mutants.spec.Protocol.spec_name;
  Alcotest.(check bool) "gc mutant brings its own program" true
    (m.Ft_mc.Mutants.program <> None)

(* The commit-budget defect spends its two commits on the first two ND
   events; the third runs uncommitted, and the visible after it is the
   Save-work violation the budget-never-reset mutant dies of. *)
let test_commit_budget_spends_two () =
  let nd = Ft_mc.Model.Nd (Event.Transient, false) in
  let r =
    Ft_mc.Model.run ~spec:Protocols.cand ~defect:Ft_mc.Model.Commit_budget
      ~program:[| [| nd; nd; nd; Ft_mc.Model.Visible |] |]
      ~prefix:[ 0; 0; 0; 0 ] ~crash:Ft_mc.Model.No_crash
  in
  Alcotest.(check (list (pair int int)))
    "commits after the first two nd events" [ (0, 1); (0, 2) ]
    r.Ft_mc.Model.commit_pcs;
  match Save_work.visible_violations r.Ft_mc.Model.prefix_trace with
  | [ v ] ->
      (* p0's trace: nd, commit, nd, commit, nd, visible *)
      Alcotest.(check (pair int int))
        "the third nd precedes the visible uncommitted" (4, 5)
        (v.Save_work.nd.Event.index, v.Save_work.target.Event.index)
  | vs -> Alcotest.failf "%d visible violations, want 1" (List.length vs)

(* Replay a script crash-free through the model, under the protocol and
   runtime defect it was found with; the trace is what Save-work judges. *)
let replay ~spec ~defect ~nprocs steps =
  let program, prefix = Ft_mc.Script.to_program ~nprocs steps in
  (Ft_mc.Model.run ~spec ~defect ~program ~prefix
     ~crash:Ft_mc.Model.No_crash).Ft_mc.Model.trace

(* Every mutant whose shrunk repro is a crash-free Save-work violation:
   the printed script parses and, replayed under the mutant's spec and
   defect, reproduces the violation. *)
let test_shrunk_script_replayable () =
  let default = program ~depth:6 in
  let replayed = ref 0 in
  List.iter
    (fun m ->
      let name = m.Ft_mc.Mutants.mutant_name in
      let spec = m.Ft_mc.Mutants.spec and defect = m.Ft_mc.Mutants.defect in
      let program = Option.value m.Ft_mc.Mutants.program ~default in
      let s = Ft_mc.Checker.check ~lose_work:false ~spec ~defect ~program () in
      let r =
        Ft_mc.Shrink.minimize ~lose_work:false ~spec ~defect ~program
          (List.hd s.Ft_mc.Checker.violations)
      in
      if
        r.Ft_mc.Shrink.s_oracle = Ft_mc.Checker.Invariant
        && r.Ft_mc.Shrink.s_crash = Ft_mc.Model.No_crash
      then begin
        incr replayed;
        match
          Ft_mc.Script.steps_of_string (Ft_mc.Shrink.to_script ~spec ~defect r)
        with
        | Error e -> Alcotest.failf "%s: script does not parse: %s" name e
        | Ok steps ->
            Alcotest.(check int)
              (name ^ ": one step per schedule slot")
              (List.length r.Ft_mc.Shrink.s_prefix)
              (List.length steps);
            (* this mutant dies on the crash-free prefix: replaying the
               script must reproduce the Save-work violation *)
            Alcotest.(check bool)
              (name ^ ": replay reproduces the violation")
              false
              (Save_work.holds
                 (replay ~spec ~defect ~nprocs:(Array.length program) steps))
      end)
    Ft_mc.Mutants.all;
  Alcotest.(check bool) "at least five crash-free Save-work repros" true
    (!replayed >= 5)

(* --- the drop-one-message fault -------------------------------------------- *)

let test_lose_transparent_under_honest () =
  (* after [0;0] p0 has executed (nd; send->1), so message (0,1,0) is in
     flight; losing it under an honest runtime is repaired by
     retransmission and the run is indistinguishable from the no-loss
     one — which is exactly why the seven honest protocols' verdicts are
     unchanged by the new fault variants *)
  let program = program ~depth:6 in
  let run crash =
    Ft_mc.Model.run ~spec:Protocols.cand ~defect:Ft_mc.Model.Honest ~program
      ~prefix:[ 0; 0 ] ~crash
  in
  let nc = run Ft_mc.Model.No_crash in
  Alcotest.(check (list (triple int int int)))
    "pending message enumerated"
    [ (0, 1, 0) ]
    nc.Ft_mc.Model.pending;
  let lost = run (Ft_mc.Model.Lose { src = 0; dst = 1; seq = 0 }) in
  Alcotest.(check (list int)) "observed unchanged" nc.Ft_mc.Model.observed
    lost.Ft_mc.Model.observed;
  Alcotest.(check (list string)) "check_one clean" []
    (List.map
       (fun (v : Ft_mc.Checker.violation) -> v.Ft_mc.Checker.v_detail)
       (Ft_mc.Checker.check_one ~spec:Protocols.cand
          ~defect:Ft_mc.Model.Honest ~program ~prefix:[ 0; 0 ]
          ~crash:(Ft_mc.Model.Lose { src = 0; dst = 1; seq = 0 }) ()))

let test_never_retransmit_dies_only_on_lose () =
  (* the never-retransmit runtime recovers from process crashes exactly
     like the honest one — only the drop-one-message fault variants can
     convict it, so every violation must carry a Lose fault *)
  let program = program ~depth:6 in
  let m = Option.get (Ft_mc.Mutants.by_name "never-retransmit") in
  let s =
    Ft_mc.Checker.check ~lose_work:false ~spec:m.Ft_mc.Mutants.spec
      ~defect:m.Ft_mc.Mutants.defect ~program ()
  in
  Alcotest.(check bool) "convicted" true (s.Ft_mc.Checker.violations <> []);
  List.iter
    (fun (v : Ft_mc.Checker.violation) ->
      match v.Ft_mc.Checker.v_crash with
      | Ft_mc.Model.Lose _ -> ()
      | c ->
          Alcotest.failf "convicted by %s, not a lost message"
            (Ft_mc.Checker.crash_to_string c))
    s.Ft_mc.Checker.violations

(* --- nested failures: the recovery path itself crashes -------------------- *)

(* A taints B, B taints C, and C's visible rides on B's uncommitted
   lineage: the shape whose transitive orphan only an honestly *resumed*
   cascade can catch.  Exhaustive at this reduced bound (3 procs, 8
   events): every interleaving, every crash — including both nested
   stages for every victim — stays clean under the honest logging
   pair. *)
let causal_chain3 : Ft_mc.Model.program =
  [|
    [| Ft_mc.Model.Nd (Event.Transient, false); Ft_mc.Model.Send 1;
       Ft_mc.Model.Visible |];
    [| Ft_mc.Model.Nd (Event.Transient, false); Ft_mc.Model.Send 2;
       Ft_mc.Model.Receive |];
    [| Ft_mc.Model.Receive; Ft_mc.Model.Visible |];
  |]

let test_causal_chain3_exhaustive () =
  List.iter
    (fun spec ->
      let s =
        Ft_mc.Checker.check ~spec ~defect:Ft_mc.Model.Honest
          ~program:causal_chain3 ()
      in
      Alcotest.(check (list string))
        (spec.Protocol.spec_name ^ " chain3 clean")
        []
        (List.map
           (fun (v : Ft_mc.Checker.violation) -> v.Ft_mc.Checker.v_detail)
           s.Ft_mc.Checker.violations);
      (* the nested enumeration really ran: each explored node spawns
         Stop, Nested/restore and Nested/cascade per victim, so the run
         count must dominate the node count by more than the Stop
         variants alone could *)
      Alcotest.(check bool)
        (spec.Protocol.spec_name ^ " nested variants enumerated")
        true
        (s.Ft_mc.Checker.runs > 6 * s.Ft_mc.Checker.nodes))
    Protocols.message_logging

(* --- memoization soundness ------------------------------------------------ *)

let test_prune_matches_no_prune () =
  let program = program ~depth:5 in
  (* honest: both verdicts clean, pruning only saves work *)
  let pruned =
    Ft_mc.Checker.check ~spec:Protocols.cand ~defect:Ft_mc.Model.Honest
      ~program ()
  in
  let full =
    Ft_mc.Checker.check ~no_prune:true ~spec:Protocols.cand
      ~defect:Ft_mc.Model.Honest ~program ()
  in
  Alcotest.(check int) "honest pruned clean" 0
    (List.length pruned.Ft_mc.Checker.violations);
  Alcotest.(check int) "honest full clean" 0
    (List.length full.Ft_mc.Checker.violations);
  Alcotest.(check bool) "pruning explored no more" true
    (pruned.Ft_mc.Checker.nodes <= full.Ft_mc.Checker.nodes);
  (* mutant: both convict, and every pruned violation also appears in
     the unpruned exploration (pruning may only drop duplicates) *)
  let m = Option.get (Ft_mc.Mutants.by_name "budget-never-reset") in
  let pv =
    (Ft_mc.Checker.check ~lose_work:false ~spec:m.Ft_mc.Mutants.spec
       ~defect:m.Ft_mc.Mutants.defect ~program ())
      .Ft_mc.Checker.violations
  in
  let fv =
    (Ft_mc.Checker.check ~no_prune:true ~lose_work:false
       ~spec:m.Ft_mc.Mutants.spec ~defect:m.Ft_mc.Mutants.defect ~program ())
      .Ft_mc.Checker.violations
  in
  Alcotest.(check bool) "mutant convicted both ways" true
    (pv <> [] && fv <> []);
  List.iter
    (fun (v : Ft_mc.Checker.violation) ->
      Alcotest.(check bool) "pruned violation exists unpruned" true
        (List.mem v fv))
    pv

(* --- serialization -------------------------------------------------------- *)

let test_crash_roundtrip () =
  List.iter
    (fun c ->
      match Ft_mc.Checker.crash_of_string (Ft_mc.Checker.crash_to_string c) with
      | Ok c' ->
          Alcotest.(check string) "crash" (Ft_mc.Checker.crash_to_string c)
            (Ft_mc.Checker.crash_to_string c')
      | Error e -> Alcotest.fail e)
    [
      Ft_mc.Model.No_crash;
      Ft_mc.Model.Stop 0;
      Ft_mc.Model.Stop 7;
      Ft_mc.Model.Mid_commit { landed = true };
      Ft_mc.Model.Mid_commit { landed = false };
      Ft_mc.Model.Lose { src = 1; dst = 0; seq = 3 };
      Ft_mc.Model.Nested { victim = 0; stage = Ft_mc.Model.NRestore };
      Ft_mc.Model.Nested { victim = 2; stage = Ft_mc.Model.NCascade };
    ];
  (match Ft_mc.Checker.prefix_of_string "010221" with
  | Ok p -> Alcotest.(check (list int)) "prefix" [ 0; 1; 0; 2; 2; 1 ] p
  | Error e -> Alcotest.fail e);
  (* every pid a sweep can key (0..9) reads back, alone and in runs *)
  let pids = List.init Ft_mc.Checker.max_procs Fun.id in
  List.iter
    (fun prefix ->
      match
        Ft_mc.Checker.prefix_of_string (Ft_mc.Checker.prefix_to_string prefix)
      with
      | Ok p -> Alcotest.(check (list int)) "prefix" prefix p
      | Error e -> Alcotest.fail e)
    ([ []; pids; List.rev pids ]
    @ List.concat_map (fun p -> [ [ p ]; [ p; p ]; [ 1; p ] ]) pids)

let test_script_roundtrip () =
  let program = program ~depth:6 in
  let prefix = [ 0; 0; 0; 1; 1; 1; 0; 1 ] in
  let steps = Ft_mc.Script.of_prefix program prefix in
  (match
     Ft_mc.Script.steps_of_string (Ft_mc.Script.steps_to_string steps)
   with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok steps' ->
      Alcotest.(check int) "same length" (List.length steps)
        (List.length steps');
      List.iter2
        (fun (a : Ft_mc.Script.step) (b : Ft_mc.Script.step) ->
          Alcotest.(check bool) (Ft_mc.Script.step_to_string a) true (a = b))
        steps steps');
  (* [to_program] inverts [of_prefix]: the script's ops and schedule
     rebuild the same script *)
  let program', prefix' = Ft_mc.Script.to_program ~nprocs:2 steps in
  Alcotest.(check (list int)) "schedule" prefix prefix';
  Alcotest.(check bool) "same script" true
    (Ft_mc.Script.of_prefix program' prefix' = steps);
  let rejected steps =
    match Ft_mc.Script.to_program ~nprocs:2 steps with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "out-of-range pid rejected" true
    (rejected [ { Ft_mc.Script.pid = 2; op = Ft_mc.Model.Internal } ]);
  Alcotest.(check bool) "out-of-range destination rejected" true
    (rejected [ { Ft_mc.Script.pid = 0; op = Ft_mc.Model.Send 2 } ])

(* --- Exp fan-out and resumability ----------------------------------------- *)

let test_sweep_resumes () =
  let program = program ~depth:4 in
  let jobs =
    Ft_mc.Checker.jobs
      ~specs:[ (Protocols.cand, Ft_mc.Model.Honest) ]
      ~program ()
  in
  let out_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftmc_test_%d" (Unix.getpid ()))
  in
  let cold =
    Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~out_dir ~name:"mc" jobs
  in
  Alcotest.(check int) "cold sweep ran everything" (List.length jobs)
    cold.Ft_exp.Exp.ran;
  let warm =
    Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~out_dir ~name:"mc" jobs
  in
  Alcotest.(check int) "warm sweep ran nothing" 0 warm.Ft_exp.Exp.ran;
  Alcotest.(check int) "warm sweep skipped everything" (List.length jobs)
    warm.Ft_exp.Exp.skipped;
  (* aggregated sharded stats must reach the same verdict as one DFS *)
  let lookup = Ft_exp.Exp.lookup warm in
  let total =
    List.fold_left
      (fun acc j ->
        match
          Option.bind (lookup j.Ft_exp.Job.key) Ft_mc.Checker.stats_of_value
        with
        | Some s -> Ft_mc.Checker.add_stats acc s
        | None -> Alcotest.fail ("missing job " ^ j.Ft_exp.Job.key))
      Ft_mc.Checker.zero_stats jobs
  in
  Alcotest.(check int) "sharded verdict clean" 0
    (List.length total.Ft_mc.Checker.violations);
  Alcotest.(check bool) "shards covered the space" true
    (total.Ft_mc.Checker.nodes > 10);
  (* clean up the store *)
  Array.iter
    (fun f -> Sys.remove (Filename.concat out_dir f))
    (Sys.readdir out_dir);
  Unix.rmdir out_dir

(* A stored row decodes only if every field does: one that fails must
   read as no verdict, never as a clean or smaller one. *)
let row text =
  match Ft_exp.Jstore.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.fail ("bad test row: " ^ e)

let stats_row ?(counts = {|"nodes":5,"runs":9,"memo_hits":1,"steps":40|})
    violations =
  row
    (Printf.sprintf {|{%s,"violations":[%s]}|} counts
       (String.concat "," violations))

let violation ?(oracle = "consistency") ?(prefix = "01") ?(crash = "stop:1")
    ?(detail = {|"detail":"saw it"|}) () =
  Printf.sprintf {|{"oracle":"%s","prefix":"%s","crash":"%s",%s}|} oracle
    prefix crash detail

let decodes v = Ft_mc.Checker.stats_of_value v <> None

let test_row_decodes () =
  match
    Ft_mc.Checker.stats_of_value
      (stats_row
         [
           violation ~oracle:"save-work" ~crash:"none" ();
           violation ();
           violation ~oracle:"lose-work" ~crash:"nested:0:cascade" ();
         ])
  with
  | None -> Alcotest.fail "a well-formed row must decode"
  | Some s ->
      Alcotest.(check (list string)) "oracles"
        [ "save-work"; "consistency"; "lose-work" ]
        (List.map
           (fun v -> Ft_mc.Checker.oracle_to_string v.Ft_mc.Checker.v_oracle)
           s.Ft_mc.Checker.violations);
      Alcotest.(check int) "nodes" 5 s.Ft_mc.Checker.nodes

let test_row_unknown_oracle () =
  Alcotest.(check bool) "unknown oracle" false
    (decodes (stats_row [ violation ~oracle:"save-wrok" () ]))

let test_row_bad_violation () =
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) what false
        (decodes (stats_row [ violation (); v ])))
    [
      ("bad prefix", violation ~prefix:"0x" ());
      ("bad crash", violation ~crash:"stop:me" ());
      ("missing detail", violation ~detail:{|"detial":"x"|} ());
      ("missing oracle", {|{"prefix":"0","crash":"none","detail":""}|});
    ]

let test_row_bad_counts () =
  List.iter
    (fun (what, v) -> Alcotest.(check bool) what false (decodes v))
    [
      ( "renamed count",
        stats_row ~counts:{|"nodez":5,"runs":9,"memo_hits":1,"steps":40|} [] );
      ( "mistyped count",
        stats_row ~counts:{|"nodes":5,"runs":"9","memo_hits":1,"steps":40|}
          [] );
      ( "no violation list",
        row {|{"nodes":5,"runs":9,"memo_hits":1,"steps":40}|} );
    ]

let test_xcheck_row () =
  let decodes text =
    Ft_mc.Engine_xcheck.stats_of_value (row text) <> None
  in
  Alcotest.(check bool) "well-formed" true
    (decodes {|{"runs":4,"kills":2,"failures":["x"]}|});
  Alcotest.(check bool) "missing kills" false
    (decodes {|{"runs":4,"failures":[]}|});
  Alcotest.(check bool) "non-string failure" false
    (decodes {|{"runs":4,"kills":2,"failures":["x",3]}|})

(* One store row per job at every process count a sweep accepts, and
   none above it: there, prefix strings collide and a shard would be
   reported twice and another never. *)
let test_jobs_distinct_keys_by_procs () =
  for nprocs = 1 to Ft_mc.Checker.max_procs do
    let program = Ft_mc.Model.default_program ~nprocs ~depth:1 in
    let keys =
      List.map
        (fun j -> j.Ft_exp.Job.key)
        (Ft_mc.Checker.jobs
           ~specs:[ (Protocols.cand, Ft_mc.Model.Honest) ]
           ~program ())
    in
    Alcotest.(check int)
      (Printf.sprintf "distinct keys at %d procs" nprocs)
      (List.length keys)
      (List.length (List.sort_uniq String.compare keys))
  done;
  let program =
    Ft_mc.Model.default_program ~nprocs:(Ft_mc.Checker.max_procs + 1) ~depth:1
  in
  match
    Ft_mc.Checker.jobs ~specs:[ (Protocols.cand, Ft_mc.Model.Honest) ]
      ~program ()
  with
  | _ -> Alcotest.fail "jobs keyed more processes than prefixes can name"
  | exception Invalid_argument _ -> ()

let test_mutant_jobs_distinct_keys () =
  (* a mutant may reuse an honest spec verbatim (drop-log-entry is
     honest CAND-LOG over a lossy logger): their sweep keys must not
     collide or a warm store would serve one the other's verdict *)
  let program = program ~depth:4 in
  let keys jobs = List.map (fun j -> j.Ft_exp.Job.key) jobs in
  let honest =
    keys
      (Ft_mc.Checker.jobs
         ~specs:[ (Protocols.cand_log, Ft_mc.Model.Honest) ]
         ~program ())
  in
  let mutant =
    keys
      (Ft_mc.Checker.jobs ~lose_work:false
         ~specs:[ (Protocols.cand_log, Ft_mc.Model.Drop_log) ]
         ~program ())
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("key " ^ k ^ " distinct") false
        (List.mem k honest))
    mutant

(* --- the engine cross-check ----------------------------------------------- *)

let test_engine_xcheck () =
  List.iter
    (fun name ->
      let spec = Option.get (Protocols.by_name name) in
      let s =
        Ft_mc.Engine_xcheck.check ~sched_depth:1 ~kill_decisions:5 ~spec ()
      in
      Alcotest.(check (list string)) (name ^ " failures") []
        s.Ft_mc.Engine_xcheck.x_failures;
      Alcotest.(check bool) (name ^ " injected kills") true
        (s.Ft_mc.Engine_xcheck.x_kills > 0))
    [ "CPVS"; "CAND-LOG"; "CPV-2PC"; "CAUSAL-LOG"; "OPTIMISTIC" ]

(* Client/server round-trips whose output encodes its own lineage: the
   client's transient draw taints the server, the server's reply shape
   ([3v+1]) and the iteration tag make any dead-lineage survivor visible
   in the published values. *)
let chain_iters = 5

let chain_client =
  let open Ft_vm.Asm in
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("r", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int chain_iters,
              [
                Set ("r", Rand %: Int 100);
                Send_msg (Int 1, Var "r");
                Recv_msg ("v", "s");
                Output ((Var "v" *: Int 8) +: Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

let chain_server =
  let open Ft_vm.Asm in
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int chain_iters,
              [
                Recv_msg ("v", "s");
                Send_msg (Var "s", (Var "v" *: Int 3) +: Int 1);
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

(* Run the pair under [spec] with a client kill at [kill_ms] and the
   given recovery-stage injections; assert completion and legal output
   (one fresh value per iteration, in order, each a genuine reply). *)
let run_chain_and_check ~tag ~spec ~seed ~kill_ms ~recovery_kills () =
  let kernel = Ft_os.Kernel.create ~seed ~nprocs:2 () in
  let cfg =
    {
      Ft_runtime.Engine.default_config with
      protocol = spec;
      kills = [ (kill_ms * 1_000_000, 0) ];
      recovery_kills;
    }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile chain_client;
                   Ft_vm.Asm.compile chain_server |]
      ()
  in
  Alcotest.(check bool) (tag ^ " completed") true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  (* legal output: one fresh value per iteration in order, each a
     server reply, duplicates only re-emissions *)
  let seen = Hashtbl.create 8 in
  let fresh =
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      r.Ft_runtime.Engine.visible
  in
  Alcotest.(check int) (tag ^ " fresh outputs") chain_iters
    (List.length fresh);
  List.iteri
    (fun idx f ->
      Alcotest.(check int)
        (Printf.sprintf "%s output %d iteration tag" tag idx)
        idx (f mod 8);
      Alcotest.(check int)
        (Printf.sprintf "%s output %d reply shape" tag idx)
        1
        (f / 8 mod 3))
    fresh;
  r

let test_engine_orphan_rollback () =
  (* The orphan cascade on the real runtime: the client's transient draw
     taints the server through a message round-trip; killing the client
     between its dependent commit and the next one leaves the server
     holding uncommitted remote non-determinism — recovery must roll the
     survivor back too, and the run still completes with legal output. *)
  List.iter
    (fun (spec, kill_ms) ->
      let r =
        run_chain_and_check ~tag:spec.Protocol.spec_name ~spec ~seed:9
          ~kill_ms ~recovery_kills:[] ()
      in
      Alcotest.(check bool)
        (spec.Protocol.spec_name ^ " rolled the surviving server back")
        true
        (r.Ft_runtime.Engine.orphan_rollbacks >= 1))
    (* each protocol orphans the server at a different crash point *)
    [ (Protocols.causal_log, 1); (Protocols.optimistic, 2) ]

let test_engine_recrash_mid_cascade =
  (* Property: a victim re-crashed mid-cascade leaves no surviving
     orphan.  The re-entered recovery resumes the persisted worklist, so
     whatever (seed, kill time, injection occurrence) the generator
     draws, the run completes and every published value still encodes a
     live lineage — a surviving orphan would break the reply shape or
     the iteration order. *)
  QCheck.Test.make ~name:"re-crashed cascade leaves no surviving orphan"
    ~count:30
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 9) (int_range 1 4) (int_range 1 2)))
    (fun (seed, kill_ms, occ) ->
      List.for_all
        (fun spec ->
          let r =
            run_chain_and_check
              ~tag:
                (Printf.sprintf "%s s%d k%d o%d" spec.Protocol.spec_name
                   seed kill_ms occ)
              ~spec ~seed ~kill_ms
              ~recovery_kills:
                [ (Ft_runtime.Scheduler.Mid_cascade, occ) ]
              ()
          in
          (* whether or not the occurrence was reached, the run is
             clean; when it was, the nested crash is accounted for *)
          r.Ft_runtime.Engine.nested_crashes >= 0)
        [ Protocols.causal_log; Protocols.optimistic ])

let test_engine_pick_override () =
  (* the override drives scheduling: forcing p1 first changes nothing
     semantically (p1 blocks on its receive) but must be honored when
     p1 is runnable; and the same run without kills stays Completed *)
  let programs = Ft_mc.Engine_xcheck.ping_pong ~rounds:2 in
  let kernel = Ft_os.Kernel.create ~seed:1 ~nprocs:2 () in
  let picked = ref [] in
  let cfg =
    {
      Ft_runtime.Engine.default_config with
      protocol = Protocols.cpvs;
      heap_words = 1_024;
      stack_words = 256;
      pick_override =
        Some
          (fun candidates ->
            picked := candidates :: !picked;
            Some (List.hd (List.rev candidates)));
    }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "override consulted" true (List.length !picked > 4)

(* --- lose-work oracle internals ------------------------------------------- *)

let test_lose_work_oracle_on_honest_crashes () =
  (* every crashed honest execution must pass the dangerous-path oracle:
     exercised wholesale in test_honest_clean, pinned here on one run *)
  let program = program ~depth:5 in
  let vs =
    Ft_mc.Checker.check_one ~spec:Protocols.cand ~defect:Ft_mc.Model.Honest
      ~program ~prefix:[ 0; 0; 1; 1; 0 ] ~crash:(Ft_mc.Model.Stop 0) ()
  in
  Alcotest.(check (list string)) "no violations"
    []
    (List.map
       (fun (v : Ft_mc.Checker.violation) -> v.Ft_mc.Checker.v_detail)
       vs)

let () =
  Alcotest.run "ft_mc"
    [
      ( "checker",
        [
          Alcotest.test_case "honest protocols exhaust 2x5 clean" `Quick
            test_honest_clean;
          Alcotest.test_case "memo partition at 3x3 (golden)" `Quick
            test_memo_partition_3x3;
          Alcotest.test_case "honest state counts (golden)" `Quick
            test_honest_counts;
          Alcotest.test_case "default bound 2x6" `Quick
            test_honest_default_bound;
          Alcotest.test_case "message logging clean at default bound" `Quick
            test_logging_default_bound;
          Alcotest.test_case "model runs deterministic" `Quick
            test_model_deterministic;
          Alcotest.test_case "lose-work oracle on honest crash" `Quick
            test_lose_work_oracle_on_honest_crashes;
          Alcotest.test_case "lost message transparent under honest runtime"
            `Quick test_lose_transparent_under_honest;
          Alcotest.test_case "never-retransmit dies only on lost messages"
            `Quick test_never_retransmit_dies_only_on_lose;
          Alcotest.test_case "prune matches no-prune" `Quick
            test_prune_matches_no_prune;
          Alcotest.test_case "3-proc causal chain exhaustive with nested"
            `Quick test_causal_chain3_exhaustive;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "every mutant killed, repro shrunk" `Quick
            test_mutants_killed;
          Alcotest.test_case "mutant suite shape" `Quick
            test_mutant_suite_shape;
          Alcotest.test_case "commit budget spends two commits" `Quick
            test_commit_budget_spends_two;
          Alcotest.test_case "shrunk script replays" `Quick
            test_shrunk_script_replayable;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "crash/prefix round-trip" `Quick
            test_crash_roundtrip;
          Alcotest.test_case "sweep keys distinct up to 10 procs" `Quick
            test_jobs_distinct_keys_by_procs;
          Alcotest.test_case "conformance script round-trip" `Quick
            test_script_roundtrip;
          Alcotest.test_case "sweep resumes from warm store" `Quick
            test_sweep_resumes;
          Alcotest.test_case "mutant sweep keys distinct" `Quick
            test_mutant_jobs_distinct_keys;
          Alcotest.test_case "stored row decodes" `Quick test_row_decodes;
          Alcotest.test_case "unknown oracle is no verdict" `Quick
            test_row_unknown_oracle;
          Alcotest.test_case "undecodable violation is no verdict" `Quick
            test_row_bad_violation;
          Alcotest.test_case "undecodable count is no verdict" `Quick
            test_row_bad_counts;
          Alcotest.test_case "cross-check row decoding" `Quick
            test_xcheck_row;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cross-check on the real runtime" `Quick
            test_engine_xcheck;
          Alcotest.test_case "orphan rollback on the real runtime" `Quick
            test_engine_orphan_rollback;
          QCheck_alcotest.to_alcotest test_engine_recrash_mid_cascade;
          Alcotest.test_case "pick override honored" `Quick
            test_engine_pick_override;
        ] );
    ]
