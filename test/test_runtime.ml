(* Tests for the execution engine: event classification, protocol-driven
   commits, stop-failure recovery, checkpoint/restore fidelity, and the
   consistency of recovered visible output. *)

open Ft_vm.Asm

(* An interactive echo program: read tokens until -1, double each, emit. *)
let echo_program =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [ Output (Var "c" *: Int 2) ] );
              ] );
        ];
    ]

let tokens = [ 3; 1; 4; 1; 5; 9; 2; 6 ]

let make_kernel () =
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000 tokens);
  kernel

let run_echo ?(cfg = Ft_runtime.Engine.default_config) () =
  let code = Ft_vm.Asm.compile echo_program in
  let kernel = make_kernel () in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let expected_output = List.map (fun x -> x * 2) tokens

let test_plain_run () =
  let r = run_echo () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check (list int)) "output" expected_output
    r.Ft_runtime.Engine.visible

let test_cpvs_commit_counts () =
  (* CPVS commits before every visible: one commit per echoed token. *)
  let r = run_echo () in
  Alcotest.(check int) "one commit per visible" (List.length tokens)
    r.Ft_runtime.Engine.commit_counts.(0)

let test_cand_commit_counts () =
  (* CAND commits after every ND event: one per Read_input (9 reads
     including the -1 that ends the session). *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cand }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check int) "one commit per input" (List.length tokens + 1)
    r.Ft_runtime.Engine.commit_counts.(0)

let test_cand_log_commits_nothing () =
  (* All of echo's ND events are loggable user input: CAND-LOG logs them
     all and never commits. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cand_log }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check int) "no commits" 0 r.Ft_runtime.Engine.commit_counts.(0);
  Alcotest.(check int) "everything logged" (List.length tokens + 1)
    r.Ft_runtime.Engine.logged_counts.(0)

let test_cbndvs_between () =
  (* CBNDVS commits before a visible only when ND happened since the last
     commit: input precedes every visible, so it matches CPVS here. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cbndvs }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check int) "one commit per visible" (List.length tokens)
    r.Ft_runtime.Engine.commit_counts.(0)

let test_save_work_holds () =
  let r = run_echo () in
  Alcotest.(check bool) "Save-work upheld by CPVS" true
    (Ft_core.Save_work.holds r.Ft_runtime.Engine.trace)

let test_stop_failure_recovery () =
  (* Kill the process mid-session; with CPVS + auto-recovery the final
     output must be consistent with the failure-free run. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      kills = [ (3_500_000, 0) ] }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check bool) "completed after recovery" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "one crash" 1 r.Ft_runtime.Engine.crashes;
  Alcotest.(check bool) "consistent recovery" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible)

let test_stop_failure_all_protocols () =
  (* Every Save-work protocol must yield consistent recovery from a stop
     failure (the Save-work theorem, end to end). *)
  List.iter
    (fun spec ->
      let cfg =
        { Ft_runtime.Engine.default_config with
          protocol = spec;
          kills = [ (2_100_000, 0); (5_300_000, 0) ] }
      in
      let r = run_echo ~cfg () in
      Alcotest.(check bool)
        (spec.Ft_core.Protocol.spec_name ^ " completes")
        true
        (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      Alcotest.(check bool)
        (spec.Ft_core.Protocol.spec_name ^ " consistent")
        true
        (Ft_core.Consistency.is_consistent ~reference:expected_output
           ~observed:r.Ft_runtime.Engine.visible))
    Ft_core.Protocols.figure8

let test_commit_all_overhead_exceeds_cbndvs () =
  (* More commits must cost more simulated time. *)
  let run spec =
    let cfg = { Ft_runtime.Engine.default_config with protocol = spec } in
    (run_echo ~cfg ()).Ft_runtime.Engine.sim_time_ns
  in
  let t_all = run Ft_core.Protocols.commit_all in
  let t_log = run Ft_core.Protocols.cand_log in
  Alcotest.(check bool) "commit-all slower than cand-log" true
    (t_all >= t_log)

let test_disk_medium_slower () =
  let run medium =
    let cfg = { Ft_runtime.Engine.default_config with medium } in
    (run_echo ~cfg ()).Ft_runtime.Engine.sim_time_ns
  in
  let t_mem = run Ft_runtime.Checkpointer.Reliable_memory in
  let t_disk =
    run (Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default)
  in
  Alcotest.(check bool) "disk commits cost more" true (t_disk > t_mem)

(* Two-process ping-pong over the network. *)
let pingpong_programs ~rounds =
  let client =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("src", Int 0);
            While
              ( Var "i" <: Int rounds,
                [
                  Send_msg (Int 1, Var "i");
                  Recv_msg ("v", "src");
                  Output (Var "v");
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  let server =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("src", Int 0);
            While
              ( Var "i" <: Int rounds,
                [
                  Recv_msg ("v", "src");
                  Send_msg (Var "src", Var "v" *: Int 10);
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  [| Ft_vm.Asm.compile client; Ft_vm.Asm.compile server |]

let run_pingpong ?(cfg = Ft_runtime.Engine.default_config) ~rounds () =
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:(pingpong_programs ~rounds) ()
  in
  r

let pingpong_reference rounds = List.init rounds (fun i -> i * 10)

let test_pingpong () =
  let r = run_pingpong ~rounds:5 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check (list int)) "echoed" (pingpong_reference 5)
    r.Ft_runtime.Engine.visible

let test_pingpong_server_killed () =
  (* Kill the server mid-run: CPVS committed before each send, so the
     client is never an orphan and the run completes consistently. *)
  let cfg =
    { Ft_runtime.Engine.default_config with kills = [ (1_000_000, 1) ] }
  in
  let r = run_pingpong ~cfg ~rounds:6 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent
       ~reference:(pingpong_reference 6)
       ~observed:r.Ft_runtime.Engine.visible)

let test_pingpong_2pc () =
  (* CPV-2PC: commits only at the client's visible events, globally. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cpv_2pc }
  in
  let r = run_pingpong ~cfg ~rounds:4 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "client commits at visibles" 4
    r.Ft_runtime.Engine.commit_counts.(0);
  (* The server may halt before the client's final visible, in which case
     the last 2PC round correctly leaves it out. *)
  Alcotest.(check bool) "server dragged along by 2PC" true
    (r.Ft_runtime.Engine.commit_counts.(1) >= 3)

let test_pingpong_2pc_with_kill () =
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cbndv_2pc;
      kills = [ (900_000, 1) ] }
  in
  let r = run_pingpong ~cfg ~rounds:6 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent
       ~reference:(pingpong_reference 6)
       ~observed:r.Ft_runtime.Engine.visible)

let test_signal_delivery () =
  (* A timer signal increments a heap counter; the program loops on input
     long enough for several deliveries. *)
  let prog =
    program
      [
        func ~is_handler:true "on_signal" []
          [ Set_heap (Int 0, Deref (Int 0) +: Int 1) ];
        func "main" []
          [
            Expr (Call ("install", []));
            Let ("c", Int 0);
            While (Var "c" >=: Int 0, [ Set ("c", Input) ]);
            Output (Deref (Int 0));
          ];
        func "install" [] [ Sigaction "on_signal" ];
      ]
  in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:10_000_000
       [ 1; 2; 3; 4; 5 ]);
  Ft_os.Kernel.set_timer_signal kernel 0 ~period_ns:20_000_000
    ~first_at:5_000_000;
  let _, r =
    Ft_runtime.Engine.execute ~kernel
      ~programs:[| Ft_vm.Asm.compile prog |] ()
  in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  (match r.Ft_runtime.Engine.visible with
  | [ n ] -> Alcotest.(check bool) "some signals delivered" true (n >= 2)
  | _ -> Alcotest.fail "expected exactly one visible event");
  Alcotest.(check bool) "signals recorded as ND" true
    (r.Ft_runtime.Engine.nd_counts.(0) > 5)

(* --- engine edge cases ---------------------------------------------------- *)

let test_deadline_outcome () =
  (* an endless real-time loop stopped by the simulated deadline *)
  let prog =
    Ft_vm.Asm.(
      program
        [
          func "main" []
            [
              Let ("t", Int 0);
              While (Int 1, [ Set ("t", Time); Sleep (Int 1_000) ]);
            ];
        ])
  in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  let cfg =
    { Ft_runtime.Engine.default_config with
      deadline_ns = Some 50_000_000 }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile prog |] ()
  in
  Alcotest.(check bool) "deadline reached" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Deadline);
  Alcotest.(check bool) "stopped near the deadline" true
    (r.Ft_runtime.Engine.sim_time_ns >= 50_000_000)

let test_deadlock_detected () =
  (* two processes both waiting to receive: nobody ever sends *)
  let waiter =
    Ft_vm.Asm.(
      program
        [
          func "main" []
            [ Let ("v", Int 0); Let ("s", Int 0); Recv_msg ("v", "s") ];
        ])
  in
  let code = Ft_vm.Asm.compile waiter in
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  let _, r = Ft_runtime.Engine.execute ~kernel ~programs:[| code; code |] () in
  Alcotest.(check bool) "deadlock detected" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Deadlocked)

let test_instruction_budget_outcome () =
  let spin =
    Ft_vm.Asm.(
      program
        [ func "main" [] [ While (Int 1, [ Set_heap (Int 0, Int 1) ]) ] ])
  in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  let cfg =
    { Ft_runtime.Engine.default_config with max_instructions = 100_000 }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile spin |] ()
  in
  Alcotest.(check bool) "budget tripped" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Instruction_budget)

let test_kernel_panic_recovers_all () =
  (* a pure stop-failure kernel fault against the echo program *)
  let code = Ft_vm.Asm.compile echo_program in
  let kernel = make_kernel () in
  Ft_os.Kernel.set_os_fault kernel
    {
      Ft_os.Kernel.panic_at = 2_500_000;
      touches = (fun _ -> false);
      corrupt_bit = 0;
      poke_probability = 0.;
      propagated = false;
    };
  let _, r = Ft_runtime.Engine.execute ~kernel ~programs:[| code |] () in
  Alcotest.(check bool) "panic counted as a crash" true
    (r.Ft_runtime.Engine.crashes >= 1);
  Alcotest.(check bool) "completed after reboot" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent output" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible);
  (* the 30 s reboot pause is charged to simulated time, on top of the
     run's own 7.42 ms of execution, restore and replay *)
  Alcotest.(check int) "30 s reboot charged" (30_000_000_000 + 7_419_270)
    r.Ft_runtime.Engine.sim_time_ns

let test_recovery_cap_gives_up () =
  (* a program that deterministically crashes right after committing:
     recovery must eventually stop retrying *)
  let prog =
    Ft_vm.Asm.(
      program
        [
          func "main" []
            [
              Output (Int 1);          (* CPVS commits before this *)
              Set_heap (Int 999_999_999, Int 1);  (* wild store: crash *)
            ];
        ])
  in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  let cfg =
    { Ft_runtime.Engine.default_config with max_recovery_attempts = 2 }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile prog |] ()
  in
  Alcotest.(check bool) "gave up" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Recovery_failed);
  Alcotest.(check int) "two recovery attempts" 2
    r.Ft_runtime.Engine.recoveries

let test_recoveries_reset_on_progress () =
  (* Three separate kills, a budget of two attempts: each recovery is
     followed by real progress (CPVS commits past the restore point), so
     the attempt counter must reset and the run complete.  Before the
     reset existed, the third kill tripped the cap even though every
     failure was transient. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      max_recovery_attempts = 2;
      (* spaced wider than one replay cycle (1 ms think-time per input),
         so a fresh commit lands between consecutive kills *)
      kills = [ (2_100_000, 0); (4_600_000, 0); (7_100_000, 0) ] }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check int) "three crashes" 3 r.Ft_runtime.Engine.crashes;
  Alcotest.(check bool) "completed: transient failures never hit the cap"
    true (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible)

let test_ladder_give_up_is_recovery_failed () =
  (* The generic ladder gives up on TreadMarks under CPV-2PC with 10
     kills/s a process and a lossy network.  The give-up is stored as the
     tenant's outcome while the survivors drain; when they then block on
     a quiet network, the stored verdict must win over [Deadlocked]. *)
  let w =
    Ft_harness.Figure8.workload ~scale:0.25 Ft_harness.Figure8.Treadmarks
  in
  let kills =
    List.concat_map
      (fun pid ->
        Ft_faults.Kill_plan.tenant ~pid ~crash_rate:10.
          ~horizon_ns:2_000_000_000 ~seed:4 pid)
      (List.init w.Ft_apps.Workload.nprocs Fun.id)
    |> List.sort compare
  in
  Alcotest.(check int) "kills" 77 (List.length kills);
  let kernel = Ft_apps.Workload.kernel ~seed:4 w in
  ignore
    (Ft_os.Kernel.attach_net
       ~policy:(Ft_net.Policy.make ~drop:0.10 ~duplicate:0.02 ~reorder:0.05 ())
       ~seed:4 kernel);
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with
        protocol = Ft_core.Protocols.cpv_2pc;
        kills;
        max_recovery_attempts = 10;
        policy = Some Ft_recovery.Policy.generic }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:w.Ft_apps.Workload.programs ()
  in
  Alcotest.(check string) "outcome" "recovery-failed"
    (Ft_runtime.Engine.outcome_name r.Ft_runtime.Engine.outcome);
  Alcotest.(check int) "crashes" 3 r.Ft_runtime.Engine.crashes;
  Alcotest.(check int) "recoveries" 2 r.Ft_runtime.Engine.recoveries

(* --- nested failures: crashing the recovery path itself ------------------ *)

let test_nested_restore_kill_completes () =
  (* A scheduled kill, then the recovering process is killed again on
     its first entry into restore: recovery must be idempotent — retry
     the restore and still finish consistently. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      kills = [ (3_500_000, 0) ];
      recovery_kills = [ (Ft_runtime.Scheduler.Mid_restore, 1) ] }
  in
  let r = run_echo ~cfg () in
  Alcotest.(check int) "nested crash fired" 1
    r.Ft_runtime.Engine.nested_crashes;
  Alcotest.(check bool) "restore crash counted" true
    (r.Ft_runtime.Engine.recovery_crashes >= 1);
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible)

let test_nested_cascade_resumes () =
  (* Optimistic logging orphans the client when the server's volatile
     determinants die with it; killing the cascade's victim again
     mid-walk must resume the persisted worklist, not restart it. *)
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.optimistic;
      kills = [ (900_000, 1) ];
      recovery_kills = [ (Ft_runtime.Scheduler.Mid_cascade, 1) ] }
  in
  let r = run_pingpong ~cfg ~rounds:6 () in
  Alcotest.(check int) "nested crash fired" 1
    r.Ft_runtime.Engine.nested_crashes;
  Alcotest.(check bool) "cascade resumed from persisted progress" true
    (r.Ft_runtime.Engine.cascade_resumes >= 1);
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent
       ~reference:(pingpong_reference 6)
       ~observed:r.Ft_runtime.Engine.visible)

let test_nested_round_kill () =
  (* [Mid_round] counts entries into a dependent-commit round only.
     Under optimistic logging the client's visibles open rounds over the
     server, so the injection fires once and the superseded round's
     replay still completes consistently.  CPV-2PC's global rounds are
     not a recovery stage: the same plan must be inert there, leaving
     the run exactly as it is without it. *)
  let cfg protocol recovery_kills =
    { Ft_runtime.Engine.default_config with
      protocol;
      kills = [ (900_000, 1) ];
      recovery_kills }
  in
  let plan = [ (Ft_runtime.Scheduler.Mid_round, 1) ] in
  let r =
    run_pingpong ~cfg:(cfg Ft_core.Protocols.optimistic plan) ~rounds:6 ()
  in
  Alcotest.(check int) "optimistic: nested crash fired" 1
    r.Ft_runtime.Engine.nested_crashes;
  Alcotest.(check bool) "optimistic: completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "optimistic: consistent" true
    (Ft_core.Consistency.is_consistent
       ~reference:(pingpong_reference 6)
       ~observed:r.Ft_runtime.Engine.visible);
  let plain =
    run_pingpong ~cfg:(cfg Ft_core.Protocols.cpv_2pc []) ~rounds:6 ()
  in
  let planned =
    run_pingpong ~cfg:(cfg Ft_core.Protocols.cpv_2pc plan) ~rounds:6 ()
  in
  Alcotest.(check int) "2pc: plan inert" 0
    planned.Ft_runtime.Engine.nested_crashes;
  Alcotest.(check (list int)) "2pc: same output"
    plain.Ft_runtime.Engine.visible planned.Ft_runtime.Engine.visible;
  Alcotest.(check int) "2pc: same simulated time"
    plain.Ft_runtime.Engine.sim_time_ns planned.Ft_runtime.Engine.sim_time_ns

let test_breaker_counts_nested_crashes () =
  (* The quarantine breaker's sliding window must see recovery-time
     crashes like any other: one scheduled kill plus two nested restore
     crashes reach the default threshold of three; the same kill alone
     must not trip it. *)
  let base recovery_kills =
    { Ft_runtime.Engine.default_config with
      quarantine = Some Ft_recovery.Quarantine.default_params;
      kills = [ (3_500_000, 0) ];
      recovery_kills }
  in
  let quiet = run_echo ~cfg:(base []) () in
  Alcotest.(check int) "one plain crash never trips" 0
    quiet.Ft_runtime.Engine.quarantine_trips;
  let loud =
    run_echo
      ~cfg:
        (base
           [
             (Ft_runtime.Scheduler.Mid_restore, 1);
             (Ft_runtime.Scheduler.Mid_restore, 2);
           ])
      ()
  in
  Alcotest.(check int) "both nested crashes fired" 2
    loud.Ft_runtime.Engine.nested_crashes;
  Alcotest.(check bool) "nested crashes tripped the breaker" true
    (loud.Ft_runtime.Engine.quarantine_trips >= 1);
  Alcotest.(check bool) "parked, probed, completed" true
    (loud.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:loud.Ft_runtime.Engine.visible)

let test_det_cap_forces_flush () =
  (* Echo under causal logging records a determinant per input and,
     uncapped, never commits — the log grows with the session.  A hard
     cap must degrade to forced flush-to-checkpoint, keeping the high
     water at the cap boundary without changing the output. *)
  let run det_cap =
    let cfg =
      { Ft_runtime.Engine.default_config with
        protocol = Ft_core.Protocols.causal_log;
        det_cap }
    in
    run_echo ~cfg ()
  in
  let free = run 0 in
  Alcotest.(check int) "uncapped never flushes" 0
    free.Ft_runtime.Engine.det_forced_flushes;
  Alcotest.(check bool) "uncapped log outgrows the cap" true
    (free.Ft_runtime.Engine.det_high_water > 4);
  let capped = run 4 in
  Alcotest.(check bool) "cap hit forces flushes" true
    (capped.Ft_runtime.Engine.det_forced_flushes >= 1);
  Alcotest.(check bool) "high water pinned at the cap boundary" true
    (capped.Ft_runtime.Engine.det_high_water <= 5);
  Alcotest.(check bool) "completed" true
    (capped.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check (list int)) "output unchanged" expected_output
    capped.Ft_runtime.Engine.visible

(* The engine's own vista/region, for commit/restore fault injection. *)
let engine_vista eng =
  Ft_runtime.Checkpointer.vista (Ft_runtime.Engine.checkpointer eng) ~pid:0

let engine_region eng = Ft_stablemem.Vista.region (engine_vista eng)

(* Probe run: the write index (counted from after checkpoint zero) of
   the write that completes the first protocol commit — the [count := 0]
   store into the log-area header.  Crashing a couple of words earlier
   lands inside that commit with its undo records fully published, so
   the subsequent rollback is guaranteed to write (and can itself be
   crash-injected). *)
let first_commit_end_index =
  lazy
    (let code = Ft_vm.Asm.compile echo_program in
     let kernel = make_kernel () in
     let eng = Ft_runtime.Engine.create ~kernel ~programs:[| code |] () in
     let hdr_off = Ft_stablemem.Vista.data_words (engine_vista eng) in
     let n = ref 0 and boundary = ref (-1) in
     Ft_stablemem.Rio.set_on_write (engine_region eng)
       (Some
          (fun off v ->
            incr n;
            if !boundary < 0 && off = hdr_off && v = 0 then boundary := !n));
     ignore (Ft_runtime.Engine.run eng);
     Alcotest.(check bool) "probe saw a commit" true (!boundary > 0);
     !boundary)

let test_commit_crash_recovers () =
  (* Crash the first protocol commit two words short of its commit point
     (one-shot): the torn transaction rolls back, the process replays,
     and the re-executed commit goes through. *)
  let code = Ft_vm.Asm.compile echo_program in
  let kernel = make_kernel () in
  let eng = Ft_runtime.Engine.create ~kernel ~programs:[| code |] () in
  let inj = Ft_faults.Mem_injector.attach (engine_region eng) in
  Ft_faults.Mem_injector.arm_crash inj
    ~after:(Lazy.force first_commit_end_index - 2);
  let r = Ft_runtime.Engine.run eng in
  Alcotest.(check int) "one crash" 1 r.Ft_runtime.Engine.crashes;
  Alcotest.(check int) "restore itself never crashed" 0
    r.Ft_runtime.Engine.recovery_crashes;
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible)

let test_restore_crash_retries_then_succeeds () =
  (* Crash near the end of the first commit (undo records published),
     then the first word of the rollback replay too: the engine must
     charge a restart pause, retry the restore from the same checkpoint,
     and finish the run. *)
  let crash_at = Lazy.force first_commit_end_index - 1 in
  let run ~restore_crash =
    let code = Ft_vm.Asm.compile echo_program in
    let kernel = make_kernel () in
    let eng = Ft_runtime.Engine.create ~kernel ~programs:[| code |] () in
    let n = ref 0 and phase = ref 0 in
    Ft_stablemem.Rio.set_on_write (engine_region eng)
      (Some
         (fun _ _ ->
           incr n;
           if !phase = 0 && !n = crash_at then begin
             phase := 1;
             raise (Ft_stablemem.Rio.Crash_point !n)
           end
           else if !phase = 1 && restore_crash then begin
             phase := 2;
             raise (Ft_stablemem.Rio.Crash_point !n)
           end));
    Ft_runtime.Engine.run eng
  in
  let r = run ~restore_crash:true in
  Alcotest.(check int) "one process crash" 1 r.Ft_runtime.Engine.crashes;
  Alcotest.(check int) "one restore crash" 1
    r.Ft_runtime.Engine.recovery_crashes;
  Alcotest.(check bool) "completed despite the restore crash" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent" true
    (Ft_core.Consistency.is_consistent ~reference:expected_output
       ~observed:r.Ft_runtime.Engine.visible);
  (* The same crash with a clean restore: the failed first attempt costs
     exactly one 10 ms restart pause (attempt 1 x 10 ms) and nothing
     else, so the whole run shifts by it. *)
  let clean = run ~restore_crash:false in
  Alcotest.(check int) "clean restore never crashed" 0
    clean.Ft_runtime.Engine.recovery_crashes;
  Alcotest.(check int) "10 ms restart pause charged" 10_000_000
    (r.Ft_runtime.Engine.sim_time_ns - clean.Ft_runtime.Engine.sim_time_ns)

let test_restore_crash_sticky_gives_up () =
  (* A sticky injector keeps crashing every restore attempt: the engine
     must degrade to Recovery_failed after max_recovery_attempts tries
     instead of looping forever. *)
  let code = Ft_vm.Asm.compile echo_program in
  let kernel = make_kernel () in
  let eng = Ft_runtime.Engine.create ~kernel ~programs:[| code |] () in
  let inj = Ft_faults.Mem_injector.attach (engine_region eng) in
  Ft_faults.Mem_injector.arm_crash ~sticky:true inj
    ~after:(Lazy.force first_commit_end_index - 2);
  let r = Ft_runtime.Engine.run eng in
  Alcotest.(check bool) "gave up" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Recovery_failed);
  Alcotest.(check int) "every restore attempt crashed"
    Ft_runtime.Engine.default_config.Ft_runtime.Engine.max_recovery_attempts
    r.Ft_runtime.Engine.recovery_crashes

(* With nothing dirty since the previous checkpoint, a commit must not
   append any page record: only the commits-counter bump and the log
   discard touch the region — far less than one page of words. *)
let test_zero_dirty_commit_no_page_records () =
  let kernel = Ft_os.Kernel.create ~seed:1 ~nprocs:1 () in
  let machine =
    Ft_vm.Machine.create ~stack_size:64 ~heap_size:1024 ~page_size:64
      [| Ft_vm.Instr.Halt |]
  in
  let ckpt =
    Ft_runtime.Checkpointer.create ~page_size:64
      ~medium:Ft_runtime.Checkpointer.Reliable_memory ~nprocs:1
      ~heap_words:1024 ~stack_words:64 ()
  in
  let commit () =
    ignore
      (Ft_runtime.Checkpointer.commit ckpt ~pid:0 ~machine
         ~kstate:(Ft_os.Kernel.snapshot_kstate kernel 0))
  in
  (* checkpoint zero, then dirty and flush a page so the log has seen
     real records before the interesting commit *)
  commit ();
  Ft_vm.Memory.write (Ft_vm.Machine.heap machine) 130 77;
  commit ();
  let region =
    Ft_stablemem.Vista.region (Ft_runtime.Checkpointer.vista ckpt ~pid:0)
  in
  let before = Ft_stablemem.Rio.words_written region in
  commit ();
  let delta = Ft_stablemem.Rio.words_written region - before in
  Alcotest.(check bool)
    (Printf.sprintf "idle commit persisted %d words (< one page)" delta)
    true
    (delta < 64)

(* Deep rollback (rung L1): the archive keeps the last [history]
   committed generations; [rollback ~back] reinstates the one [back]
   commits ago — heap words, the generation's out_seq cursor — and a
   too-deep request is refused rather than clamped. *)
let test_checkpointer_deep_rollback () =
  let kernel = Ft_os.Kernel.create ~seed:1 ~nprocs:1 () in
  let machine =
    Ft_vm.Machine.create ~stack_size:64 ~heap_size:1024 ~page_size:64
      [| Ft_vm.Instr.Halt |]
  in
  let ckpt =
    Ft_runtime.Checkpointer.create ~page_size:64 ~history:4
      ~medium:Ft_runtime.Checkpointer.Reliable_memory ~nprocs:1
      ~heap_words:1024 ~stack_words:64 ()
  in
  let commit ~out_seq =
    ignore
      (Ft_runtime.Checkpointer.commit ~out_seq ckpt ~pid:0 ~machine
         ~kstate:(Ft_os.Kernel.snapshot_kstate kernel 0))
  in
  let heap = Ft_vm.Machine.heap machine in
  commit ~out_seq:0;
  Ft_vm.Memory.write heap 130 77;
  commit ~out_seq:3;
  Ft_vm.Memory.write heap 130 99;
  commit ~out_seq:5;
  Alcotest.(check int) "three generations archived" 3
    (Ft_runtime.Checkpointer.history_depth ckpt ~pid:0);
  (* clobber live state: rollback must reinstate the archived image *)
  Ft_vm.Memory.write heap 130 1234;
  (match Ft_runtime.Checkpointer.rollback ckpt ~pid:0 ~machine ~back:1 with
  | None -> Alcotest.fail "rollback 1 refused"
  | Some (_, _, out_seq) ->
      Alcotest.(check int) "middle generation's egress cursor" 3 out_seq;
      Alcotest.(check int) "middle generation's heap word" 77
        (Ft_vm.Memory.read heap 130));
  (* the reinstated generation was re-committed as the newest: a plain
     restore now lands on it, not on the abandoned one *)
  Ft_vm.Memory.write heap 130 4321;
  (match Ft_runtime.Checkpointer.restore ckpt ~pid:0 ~machine with
  | _ ->
      Alcotest.(check int) "restore sees the rolled-back image" 77
        (Ft_vm.Memory.read heap 130));
  Alcotest.(check bool) "too-deep rollback refused" true
    (Ft_runtime.Checkpointer.rollback ckpt ~pid:0 ~machine ~back:40 = None)

(* --- multi-tenant scheduler ----------------------------------------------- *)

(* A scheduler hosting several tenants must hand every tenant exactly
   the result its own private engine would produce — outcome, outputs,
   clocks, instruction counts, trace, everything.  Heterogeneous mix:
   an echo tenant with two kills, a two-process pingpong with the
   server killed, and a clean echo on a different kernel seed. *)
let tenant_makers spec =
  let mk_echo ~seed ~kills () =
    let kernel = Ft_os.Kernel.create ~seed ~nprocs:1 () in
    Ft_os.Kernel.set_input kernel 0
      (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000 tokens);
    ( { Ft_runtime.Engine.default_config with protocol = spec; kills },
      kernel,
      [| Ft_vm.Asm.compile echo_program |] )
  in
  let mk_pingpong ~kills () =
    let kernel = Ft_os.Kernel.create ~seed:7 ~nprocs:2 () in
    ( { Ft_runtime.Engine.default_config with protocol = spec; kills },
      kernel,
      pingpong_programs ~rounds:5 )
  in
  [|
    (fun () -> mk_echo ~seed:1 ~kills:[ (2_100_000, 0); (5_300_000, 0) ] ());
    (fun () -> mk_pingpong ~kills:[ (1_000_000, 1) ] ());
    (fun () -> mk_echo ~seed:2 ~kills:[] ());
  |]

let check_same_result ~msg r r' =
  let open Ft_runtime.Engine in
  let name field = Printf.sprintf "%s %s" msg field in
  Alcotest.(check bool) (name "outcome") true (r.outcome = r'.outcome);
  Alcotest.(check (list int)) (name "visible") r'.visible r.visible;
  Alcotest.(check int) (name "sim time") r'.sim_time_ns r.sim_time_ns;
  Alcotest.(check int) (name "instructions") r'.wall_instructions
    r.wall_instructions;
  Alcotest.(check (array int)) (name "commits") r'.commit_counts
    r.commit_counts;
  Alcotest.(check (array int)) (name "nd events") r'.nd_counts r.nd_counts;
  Alcotest.(check int) (name "crashes") r'.crashes r.crashes;
  Alcotest.(check int) (name "recoveries") r'.recoveries r.recoveries;
  Alcotest.(check bool) (name "visible times") true
    (r.visible_times = r'.visible_times);
  Alcotest.(check bool) (name "crash times") true
    (r.crash_times = r'.crash_times);
  Alcotest.(check bool) (name "trace") true
    (Ft_core.Trace.events r.trace = Ft_core.Trace.events r'.trace)

let test_scheduler_matches_private_engines () =
  List.iter
    (fun spec ->
      let mks = tenant_makers spec in
      let sched =
        Ft_runtime.Scheduler.create
          ~tenants:(Array.map (fun mk -> mk ()) mks)
          ()
      in
      let rs = Ft_runtime.Scheduler.run sched in
      Array.iteri
        (fun i mk ->
          let cfg, kernel, programs = mk () in
          let _, r' =
            Ft_runtime.Engine.execute ~cfg ~kernel ~programs ()
          in
          check_same_result
            ~msg:
              (Printf.sprintf "%s tenant %d"
                 spec.Ft_core.Protocol.spec_name i)
            rs.(i) r')
        mks)
    Ft_core.Protocols.figure8

(* Two pingpong tenants on ONE shared transport with disjoint global pid
   ranges and a lossy link policy: retransmission must carry both to
   completion, the outputs must stay consistent, and a kill in tenant 0
   must not touch tenant 1. *)
let test_scheduler_shared_transport () =
  let wnprocs = 2 and n = 2 in
  let kernels =
    Array.init n (fun i -> Ft_os.Kernel.create ~seed:(50 + i) ~nprocs:wnprocs ())
  in
  let tr =
    Ft_net.Transport.create
      ~policy:(fun _ _ -> Ft_net.Policy.make ~drop:0.2 ())
      ~seed:99 ~nprocs:(n * wnprocs) ~latency_ns:20_000 ~jitter_ns:5_000
      ~deliver:(fun ~at ~src:_ ~dst m ->
        Ft_os.Kernel.deliver_net kernels.(dst / wnprocs) ~at
          ~dst:(dst mod wnprocs) m)
      ()
  in
  Array.iteri (fun i k -> Ft_os.Kernel.set_net k ~base:(i * wnprocs) tr) kernels;
  let cfg kills = { Ft_runtime.Engine.default_config with kills } in
  let sched =
    Ft_runtime.Scheduler.create
      ~tenants:
        [|
          (cfg [ (1_000_000, 1) ], kernels.(0), pingpong_programs ~rounds:5);
          (cfg [], kernels.(1), pingpong_programs ~rounds:5);
        |]
      ()
  in
  let rs = Ft_runtime.Scheduler.run sched in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d completed" i)
        true
        (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d consistent" i)
        true
        (Ft_core.Consistency.is_consistent
           ~reference:(pingpong_reference 5)
           ~observed:r.Ft_runtime.Engine.visible))
    rs;
  Alcotest.(check int) "kill landed in tenant 0" 1
    rs.(0).Ft_runtime.Engine.crashes;
  Alcotest.(check int) "tenant 1 untouched by the kill" 0
    rs.(1).Ft_runtime.Engine.crashes

(* Resolves from the dune test sandbox (cwd = test/) and from the repo
   root alike. *)
let read_golden name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* The order in which tenants are picked is observable only among
   tenants sharing a lossy transport: they draw from its one RNG, and
   each step's pump fires the others' events.  Five pingpong tenants on
   one dropping, duplicating and reordering transport — staggered kills
   in tenants 1 and 3, tenant 2 done after two rounds while the others
   run eight — rendered tenant by tenant with the transport's counters. *)
let shared_transport_fleet () =
  let wnprocs = 2 and n = 5 in
  let kernels =
    Array.init n (fun i ->
        Ft_os.Kernel.create ~seed:(70 + i) ~nprocs:wnprocs ())
  in
  let tr =
    Ft_net.Transport.create
      ~policy:(fun _ _ ->
        Ft_net.Policy.make ~drop:0.2 ~duplicate:0.1 ~reorder:0.2
          ~reorder_ns:30_000 ())
      ~seed:4242 ~nprocs:(n * wnprocs) ~latency_ns:20_000 ~jitter_ns:5_000
      ~deliver:(fun ~at ~src:_ ~dst m ->
        Ft_os.Kernel.deliver_net kernels.(dst / wnprocs) ~at
          ~dst:(dst mod wnprocs) m)
      ()
  in
  Array.iteri
    (fun i k -> Ft_os.Kernel.set_net k ~base:(i * wnprocs) tr)
    kernels;
  let kills =
    [|
      [];
      [ (300_000, 0); (900_000, 1) ];
      [];
      [ (600_000, 1); (1_400_000, 0) ];
      [];
    |]
  and rounds = [| 8; 8; 2; 8; 8 |] in
  let sched =
    Ft_runtime.Scheduler.create
      ~tenants:
        (Array.init n (fun i ->
             ( { Ft_runtime.Engine.default_config with kills = kills.(i) },
               kernels.(i),
               pingpong_programs ~rounds:rounds.(i) )))
      ()
  in
  let rs = Ft_runtime.Scheduler.run sched in
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i (r : Ft_runtime.Scheduler.result) ->
      Printf.bprintf b "tenant %d %s sim_time_ns=%d\n" i
        (Ft_runtime.Scheduler.outcome_name r.outcome)
        r.sim_time_ns;
      Printf.bprintf b "  visible %s\n"
        (String.concat " "
           (List.map
              (fun (pid, v, at) -> Printf.sprintf "%d:%d@%d" pid v at)
              r.visible_times));
      Printf.bprintf b "  crashes %s\n"
        (String.concat " "
           (List.map (fun (pid, at) -> Printf.sprintf "%d@%d" pid at)
              r.crash_times)))
    rs;
  let s = Ft_net.Transport.stats tr in
  Printf.bprintf b
    "transport sends=%d transmissions=%d retransmits=%d deliveries=%d \
     dup_frames=%d dropped=%d cut=%d acks=%d gave_up=%d\n"
    s.sends s.transmissions s.retransmits s.deliveries s.dup_frames s.dropped
    s.cut s.acks s.gave_up;
  (rs, Buffer.contents b)

let test_shared_transport_pick_order () =
  let rs, rendered = shared_transport_fleet () in
  Array.iteri
    (fun i (r : Ft_runtime.Scheduler.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d consistent" i)
        true
        (Ft_core.Consistency.is_consistent
           ~reference:(pingpong_reference (if i = 2 then 2 else 8))
           ~observed:r.visible))
    rs;
  Alcotest.(check string) "shared-transport fleet is byte-identical"
    (read_golden "scheduler_shared_transport.golden")
    rendered

let tests =
  [
    Alcotest.test_case "plain run" `Quick test_plain_run;
    Alcotest.test_case "scheduler == private engines (all protocols)" `Quick
      test_scheduler_matches_private_engines;
    Alcotest.test_case "scheduler shared transport" `Quick
      test_scheduler_shared_transport;
    Alcotest.test_case "shared transport pick order (golden)" `Quick
      test_shared_transport_pick_order;
    Alcotest.test_case "recoveries reset on progress" `Quick
      test_recoveries_reset_on_progress;
    Alcotest.test_case "commit crash recovers" `Quick
      test_commit_crash_recovers;
    Alcotest.test_case "restore crash retries" `Quick
      test_restore_crash_retries_then_succeeds;
    Alcotest.test_case "restore crash sticky gives up" `Quick
      test_restore_crash_sticky_gives_up;
    Alcotest.test_case "nested restore kill completes" `Quick
      test_nested_restore_kill_completes;
    Alcotest.test_case "nested cascade resumes" `Quick
      test_nested_cascade_resumes;
    Alcotest.test_case "nested round kill (2pc inert)" `Quick
      test_nested_round_kill;
    Alcotest.test_case "breaker counts nested crashes" `Quick
      test_breaker_counts_nested_crashes;
    Alcotest.test_case "det cap forces flush" `Quick
      test_det_cap_forces_flush;
    Alcotest.test_case "deadline outcome" `Quick test_deadline_outcome;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "instruction budget" `Quick
      test_instruction_budget_outcome;
    Alcotest.test_case "kernel panic recovers" `Quick
      test_kernel_panic_recovers_all;
    Alcotest.test_case "recovery cap gives up" `Quick
      test_recovery_cap_gives_up;
    Alcotest.test_case "cpvs commit counts" `Quick test_cpvs_commit_counts;
    Alcotest.test_case "cand commit counts" `Quick test_cand_commit_counts;
    Alcotest.test_case "cand-log never commits" `Quick
      test_cand_log_commits_nothing;
    Alcotest.test_case "cbndvs commit counts" `Quick test_cbndvs_between;
    Alcotest.test_case "save-work holds" `Quick test_save_work_holds;
    Alcotest.test_case "stop failure recovery" `Quick
      test_stop_failure_recovery;
    Alcotest.test_case "stop failure x all protocols" `Quick
      test_stop_failure_all_protocols;
    Alcotest.test_case "commit cost ordering" `Quick
      test_commit_all_overhead_exceeds_cbndvs;
    Alcotest.test_case "disk commits slower" `Quick test_disk_medium_slower;
    Alcotest.test_case "zero-dirty commit appends no page records" `Quick
      test_zero_dirty_commit_no_page_records;
    Alcotest.test_case "checkpointer deep rollback" `Quick
      test_checkpointer_deep_rollback;
    Alcotest.test_case "pingpong" `Quick test_pingpong;
    Alcotest.test_case "pingpong server killed" `Quick
      test_pingpong_server_killed;
    Alcotest.test_case "pingpong 2pc" `Quick test_pingpong_2pc;
    Alcotest.test_case "pingpong 2pc with kill" `Quick
      test_pingpong_2pc_with_kill;
    Alcotest.test_case "signal delivery" `Quick test_signal_delivery;
    Alcotest.test_case "ladder give-up is recovery-failed" `Quick
      test_ladder_give_up_is_recovery_failed;
  ]

let () = Alcotest.run "ft_runtime" [ ("engine", tests) ]
