(* Property and feature tests that cut across libraries:

   - protocol conformance: every executable protocol upholds Save-work
     on random abstract multi-process event streams, replayed through
     the model checker's executor (Ft_mc.Script, Ft_mc.Model);
   - end-to-end: random stop-failure schedules x protocols keep recovery
     consistent on a real workload;
   - the §2.6 mitigations: resource expansion turning fixed ND transient,
     and checkpoint exclusion of recomputable state. *)

open Ft_core
module Model = Ft_mc.Model
module Script = Ft_mc.Script

(* --- conformance over random scripts ------------------------------------- *)

(* Replay a script crash-free on an honest runtime; the trace is what
   the Save-work oracle judges. *)
let replay spec ~nprocs steps =
  let program, prefix = Script.to_program ~nprocs steps in
  (Model.run ~spec ~defect:Model.Honest ~program ~prefix
     ~crash:Model.No_crash).Model.trace

let gen_step nprocs =
  QCheck.Gen.(
    int_bound (nprocs - 1) >>= fun pid ->
    frequency
      [
        (3, return Model.Internal);
        (2, return (Model.Nd (Event.Transient, false)));
        (2, return (Model.Nd (Event.Fixed, true)));   (* user input *)
        (1, return (Model.Nd (Event.Fixed, false)));  (* disk full *)
        (3, return Model.Visible);
        (2, map (fun d -> Model.Send d) (int_bound (nprocs - 1)));
        (2, return Model.Receive);
      ]
    >>= fun op -> return { Script.pid; op })

let arb_script nprocs =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 60) (gen_step nprocs))
    ~print:(fun steps ->
      String.concat ";" (List.map Script.step_to_string steps))

let conformance_prop spec =
  QCheck.Test.make
    ~name:(spec.Protocol.spec_name ^ " upholds save-work on random streams")
    ~count:150 (arb_script 3)
    (fun script -> Save_work.holds (replay spec ~nprocs:3 script))

let conformance_tests =
  List.map conformance_prop
    (Protocols.commit_all :: Protocols.sender_based_logging
     :: Protocols.manetho :: Protocols.coordinated_checkpointing
     :: Protocols.figure8_extended)

(* --- forked executions ---------------------------------------------------- *)

(* The checker executes a node's prefix once and forks the state for each
   of the node's executions; every one must equal the same execution run
   from scratch, under every honest protocol and every mutant, for every
   fault the checker injects there. *)
let gen_fork_case =
  QCheck.Gen.(
    int_range 2 3 >>= fun nprocs ->
    let op =
      frequency
        [
          (2, return Model.Internal);
          (2, return (Model.Nd (Event.Transient, false)));
          (1, return (Model.Nd (Event.Transient, true)));
          (1, return (Model.Nd (Event.Fixed, true)));
          (1, return (Model.Nd (Event.Fixed, false)));
          (2, return Model.Visible);
          (3, map (fun d -> Model.Send d) (int_bound (nprocs - 1)));
          (3, return Model.Receive);
        ]
    in
    array_repeat nprocs (array_size (int_range 1 4) op) >>= fun program ->
    list_size (int_range 1 8) (int_bound (nprocs - 1)) >>= fun prefix ->
    return (program, prefix))

let print_fork_case (program, prefix) =
  let procs =
    Array.to_list
      (Array.mapi
         (fun pid ops ->
           let step op = Script.step_to_string { Script.pid; op } in
           String.concat "; " (Array.to_list (Array.map step ops)))
         program)
  in
  Printf.sprintf "%s\nprefix %s" (String.concat "\n" procs)
    (Ft_mc.Checker.prefix_to_string prefix)

let fork_specs =
  List.map
    (fun s -> (s, Model.Honest))
    (Protocols.commit_all :: Protocols.sender_based_logging
     :: Protocols.manetho :: Protocols.coordinated_checkpointing
     :: Protocols.figure8_extended)
  @ List.map
      (fun m -> (m.Ft_mc.Mutants.spec, m.Ft_mc.Mutants.defect))
      Ft_mc.Mutants.all

let same_trace a b =
  let same (x : Event.t) (y : Event.t) =
    x.Event.pid = y.Event.pid && x.Event.index = y.Event.index
    && x.Event.kind = y.Event.kind && x.Event.logged = y.Event.logged
    && Vclock.equal x.Event.vc y.Event.vc
  in
  Trace.length a = Trace.length b
  && List.for_all2 same (Trace.events a) (Trace.events b)

(* The fields on which two runs differ. *)
let run_diff (a : Model.run) (b : Model.run) =
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("trace", same_trace a.Model.trace b.Model.trace);
      ("prefix_trace", same_trace a.Model.prefix_trace b.Model.prefix_trace);
      ("observed", a.Model.observed = b.Model.observed);
      ("reference", Lazy.force a.Model.reference = Lazy.force b.Model.reference);
      ("commit_pcs", a.Model.commit_pcs = b.Model.commit_pcs);
      ("crash_pc", a.Model.crash_pc = b.Model.crash_pc);
      ("last_step_committed",
       a.Model.last_step_committed = b.Model.last_step_committed);
      ("prefix_bindings", a.Model.prefix_bindings = b.Model.prefix_bindings);
      ("pending", a.Model.pending = b.Model.pending);
      ("logged_pcs", a.Model.logged_pcs = b.Model.logged_pcs);
      ("next_pids", a.Model.next_pids = b.Model.next_pids);
      ("steps", a.Model.steps = b.Model.steps);
    ]

let spec_name (spec, defect) =
  spec.Protocol.spec_name ^ "/" ^ Ft_mc.Checker.defect_to_string defect

(* The checker's way to a node: the state one step short of [prefix]
   (the parent), then a fork of it advanced by the last step.  Returns
   the parent, that last pid and the node's state. *)
let node_state ~spec ~defect ~program prefix =
  match List.rev prefix with
  | [] -> assert false
  | last :: rev ->
      let parent = Model.start ~spec ~defect ~program in
      List.iter (Model.advance parent) (List.rev rev);
      let st = Model.fork parent in
      Model.advance st last;
      (parent, last, st)

let fork_matches_scratch_prop =
  QCheck.Test.make ~name:"forked executions equal from-scratch runs"
    ~count:100
    (QCheck.make gen_fork_case ~print:print_fork_case)
    (fun (program, prefix) ->
      let nprocs = Array.length program in
      List.for_all
        (fun (spec, defect) ->
          let name = spec_name (spec, defect) in
          let parent, last, st = node_state ~spec ~defect ~program prefix in
          let scratch = Model.start ~spec ~defect ~program in
          List.iter (Model.advance scratch) prefix;
          if Model.state_key st <> Model.state_key scratch then
            QCheck.Test.fail_reportf "%s: post-prefix keys differ" name;
          let run crash = Model.run ~spec ~defect ~program ~prefix ~crash in
          List.for_all
            (fun crash ->
              let forked =
                Model.finish
                  (Ft_mc.Checker.fault_state ~parent ~last st crash)
                  crash
              in
              match run_diff forked (run crash) with
              | [] -> true
              | fields ->
                  QCheck.Test.fail_reportf "%s, crash %s: %s differ" name
                    (Ft_mc.Checker.crash_to_string crash)
                    (String.concat ", " fields))
            (Model.No_crash
            :: Ft_mc.Checker.faults ~nprocs (run Model.No_crash)))
        fork_specs)

(* Forks share the model's persistent tables with their source, so
   nothing a fork does may reach back: after each of the node's fault
   executions and after advancing and finishing a forked child per
   schedule choice, the node's and its parent's state keys are what they
   were, and a second crash-free run from the node equals the first. *)
let fork_isolation_prop =
  QCheck.Test.make ~name:"forks leave the node and its parent unchanged"
    ~count:100
    (QCheck.make gen_fork_case ~print:print_fork_case)
    (fun (program, prefix) ->
      let nprocs = Array.length program in
      List.for_all
        (fun (spec, defect) ->
          let name = spec_name (spec, defect) in
          let parent, last, st = node_state ~spec ~defect ~program prefix in
          let parent_key = Model.state_key parent
          and node_key = Model.state_key st in
          let unchanged what =
            (Model.state_key st = node_key
            || QCheck.Test.fail_reportf "%s: %s changed the node" name what)
            && (Model.state_key parent = parent_key
               || QCheck.Test.fail_reportf "%s: %s changed the parent" name
                    what)
          in
          let node = Model.finish (Model.fork st) Model.No_crash in
          List.for_all
            (fun crash ->
              ignore
                (Model.finish
                   (Ft_mc.Checker.fault_state ~parent ~last st crash)
                   crash);
              unchanged ("crash " ^ Ft_mc.Checker.crash_to_string crash))
            (Ft_mc.Checker.faults ~nprocs node)
          && List.for_all
               (fun p ->
                 let child = Model.fork st in
                 Model.advance child p;
                 ignore (Model.finish child Model.No_crash);
                 unchanged (Printf.sprintf "child %d" p))
               node.Model.next_pids
          &&
          match run_diff node (Model.finish (Model.fork st) Model.No_crash) with
          | [] -> true
          | fields ->
              QCheck.Test.fail_reportf "%s: second crash-free run: %s differ"
                name (String.concat ", " fields))
        fork_specs)

(* A memo-pruned node's crash-free run is counted, not executed: its
   step count from [Model.crash_free_steps] must equal the executed
   run's, at every state along every generated prefix. *)
let crash_free_steps_prop =
  QCheck.Test.make ~name:"crash-free step count equals the executed run's"
    ~count:100
    (QCheck.make gen_fork_case ~print:print_fork_case)
    (fun (program, prefix) ->
      List.for_all
        (fun (spec, defect) ->
          let st = Model.start ~spec ~defect ~program in
          let agrees () =
            let counted = Model.crash_free_steps st in
            let executed =
              (Model.finish (Model.fork st) Model.No_crash).Model.steps
            in
            counted = executed
            || QCheck.Test.fail_reportf "%s: counted %d, executed %d"
                 (spec_name (spec, defect)) counted executed
          in
          agrees ()
          && List.for_all
               (fun p ->
                 Model.advance st p;
                 agrees ())
               prefix)
        fork_specs)

(* NO-COMMIT must violate Save-work whenever unlogged ND precedes a
   visible event. *)
let no_commit_violates =
  QCheck.Test.make ~name:"no-commit violates on nd-then-visible" ~count:50
    QCheck.unit
    (fun () ->
      let script =
        [
          { Script.pid = 0; op = Model.Nd (Event.Transient, false) };
          { Script.pid = 0; op = Model.Visible };
        ]
      in
      not (Save_work.holds (replay Protocols.no_commit ~nprocs:1 script)))

(* --- end-to-end: random kill schedules ----------------------------------- *)

open Ft_vm.Asm

let counter_program =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("sum", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [
                      Set ("sum", (Var "sum" +: Var "c") %: Int 9973);
                      Set_heap (Var "c" %: Int 512, Var "sum");
                      Output (Var "sum");
                    ] );
              ] );
        ];
    ]

let counter_tokens = List.init 25 (fun i -> (i * 7) mod 90)

let run_counter ~protocol ~kills =
  let code = Ft_vm.Asm.compile counter_program in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:500_000
       counter_tokens);
  let cfg = { Ft_runtime.Engine.default_config with protocol; kills } in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let counter_reference =
  lazy (run_counter ~protocol:Protocols.no_commit ~kills:[])
        (* no commits, no kills: the pristine output *)

let stop_failure_prop =
  QCheck.Test.make
    ~name:"random kill schedules recover consistently (all protocols)"
    ~count:60
    QCheck.(
      pair (0 -- 4)
        (list_of_size (QCheck.Gen.int_bound 2) (In_range.int 1 12)))
    (fun (pi, kill_ms) ->
      let protocol =
        List.nth
          Protocols.[ cand; cand_log; cpvs; cbndvs; cbndvs_log ]
          pi
      in
      let kills = List.map (fun ms -> (ms * 1_000_000, 0)) kill_ms in
      let r = run_counter ~protocol ~kills in
      r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
      && Consistency.is_consistent
           ~reference:(Lazy.force counter_reference).Ft_runtime.Engine.visible
           ~observed:r.Ft_runtime.Engine.visible)

(* --- multi-tenant scheduler == private engines ---------------------------- *)

(* Random fleets: any mix of protocols and kill schedules packed into one
   scheduler must give each tenant byte-identical results to a private
   engine — the tentpole refactor's correctness contract. *)
let scheduler_tenant ~protocol ~kills ~seed () =
  let code = Ft_vm.Asm.compile counter_program in
  let kernel = Ft_os.Kernel.create ~seed ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:500_000 counter_tokens);
  ({ Ft_runtime.Engine.default_config with protocol; kills }, kernel, [| code |])

let scheduler_matches_engines_prop =
  QCheck.Test.make
    ~name:"multi-tenant scheduler == one private engine per tenant"
    ~count:40
    QCheck.(
      In_range.list 1 3
        (pair (0 -- 8)
           (list_of_size (Gen.int_bound 2) (In_range.int 1 12))))
    (fun tenants ->
      let mk i (pi, kill_ms) =
        scheduler_tenant
          ~protocol:(List.nth Protocols.figure8_extended pi)
          ~kills:(List.map (fun ms -> (ms * 1_000_000, 0)) kill_ms)
          ~seed:(1 + i) ()
      in
      let sched =
        Ft_runtime.Scheduler.create
          ~tenants:(Array.of_list (List.mapi mk tenants))
          ()
      in
      let rs = Ft_runtime.Scheduler.run sched in
      List.for_all
        (fun i ->
          let cfg, kernel, programs = mk i (List.nth tenants i) in
          let _, r' =
            Ft_runtime.Engine.execute ~cfg ~kernel ~programs ()
          in
          let open Ft_runtime.Engine in
          let r = rs.(i) in
          r.outcome = r'.outcome && r.visible = r'.visible
          && r.sim_time_ns = r'.sim_time_ns
          && r.wall_instructions = r'.wall_instructions
          && r.commit_counts = r'.commit_counts
          && r.crashes = r'.crashes
          && r.recoveries = r'.recoveries
          && r.visible_times = r'.visible_times
          && r.crash_times = r'.crash_times)
        (List.init (List.length tenants) Fun.id))

(* --- consistency modulo duplicates (§2.3) -------------------------------- *)

(* Duplicate bursts are exactly what rollback re-emission produces, and
   the checker's one tolerated difference: interleaving repeats of
   already-seen values anywhere in the observed stream must never
   convict. *)
let consistency_dup_bursts_prop =
  QCheck.Test.make ~name:"duplicate bursts stay consistent" ~count:200
    QCheck.(pair (In_range.list 1 20 (0 -- 9)) (0 -- 1_000_000))
    (fun (reference, seed) ->
      QCheck.assume (reference <> []);
      let rng = Random.State.make [| seed; 0xc0 |] in
      let observed =
        List.concat
          (List.mapi
             (fun i v ->
               let seen = Array.of_list (List.filteri (fun j _ -> j <= i) reference) in
               let burst =
                 List.init (Random.State.int rng 4) (fun _ ->
                     seen.(Random.State.int rng (Array.length seen)))
               in
               v :: burst)
             reference)
      in
      Consistency.is_consistent ~reference ~observed)

(* A reordering of two distinct, first-occurrence values is NOT a
   duplicate: the early value is neither expected nor seen, and the
   checker must convict it as Extra at exactly that position. *)
let consistency_reorder_extra_prop =
  QCheck.Test.make ~name:"reordered distinct pair convicted extra" ~count:200
    QCheck.(pair (In_range.int 2 30) (0 -- 28))
    (fun (n, i) ->
      QCheck.assume (i < n - 1);
      let reference = List.init n (fun k -> 10 + k) in
      let observed =
        List.mapi
          (fun k v ->
            if k = i then 10 + i + 1
            else if k = i + 1 then 10 + i
            else v)
          reference
      in
      match Consistency.check ~reference ~observed with
      | Consistency.Extra { position; value } ->
          position = i && value = 10 + i + 1
      | _ -> false)

(* --- §2.6: resource expansion -------------------------------------------- *)

(* Writes past the disk's capacity, crashing on the failure; with
   expand-resources-on-recovery the rerun finds a bigger disk and the
   fixed ND result changes. *)
let disk_filler =
  program
    [
      func "main" []
        [
          Let ("fd", Open_file (Int 3));
          Check (Var "fd" >=: Int 0);
          Let ("i", Int 0);
          While
            ( Var "i" <: Int 40,
              [
                Let ("ok", Write_file (Var "fd", Var "i"));
                Check (Var "ok" >: Int 0);  (* crash on disk-full *)
                Output (Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
          Close_file (Var "fd");
        ];
    ]

let run_disk_filler ~expand =
  let code = Ft_vm.Asm.compile disk_filler in
  let kernel = Ft_os.Kernel.create ~fs_capacity:25 ~nprocs:1 () in
  let cfg =
    { Ft_runtime.Engine.default_config with
      expand_resources_on_recovery = expand;
      max_recovery_attempts = 2;
      max_instructions = 10_000_000 }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let test_resource_expansion () =
  let stuck = run_disk_filler ~expand:false in
  Alcotest.(check bool) "without expansion the crash repeats" true
    (stuck.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Recovery_failed);
  let saved = run_disk_filler ~expand:true in
  Alcotest.(check bool) "with expansion recovery completes" true
    (saved.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "all forty records written" 40
    (List.length
       (List.sort_uniq compare saved.Ft_runtime.Engine.visible))

(* --- §2.6: checkpoint exclusion ------------------------------------------ *)

(* Pages >= 8 hold a scratch rendering fully rebuilt before use on every
   iteration; excluding them from checkpoints loses nothing. *)
let scratch_base = 8 * 64

let renderer =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("acc", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [
                      (* rebuild the scratch area from the input *)
                      Let ("j", Int 0);
                      While
                        ( Var "j" <: Int 1024,
                          [
                            Set_heap (Int scratch_base +: Var "j",
                                      (Var "c" *: Int 31) +: Var "j");
                            Set ("j", Var "j" +: Int 1);
                          ] );
                      (* then read it back *)
                      Set ("acc",
                           (Var "acc" +: Deref (Int scratch_base +: (Var "c" %: Int 1024)))
                           %: Int 99_991);
                      Set_heap (Int 0, Var "acc");
                      Output (Var "acc");
                    ] );
              ] );
        ];
    ]

let run_renderer ~excluded ~kills ~medium =
  let code = Ft_vm.Asm.compile renderer in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000
       (List.init 30 (fun i -> (i * 11) mod 800)));
  let cfg =
    { Ft_runtime.Engine.default_config with
      kills;
      medium;
      excluded_pages = (if excluded then fun p -> p >= 8 else fun _ -> false) }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let test_checkpoint_exclusion_consistent () =
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let reference = run_renderer ~excluded:false ~kills:[] ~medium:mem in
  let r = run_renderer ~excluded:true ~kills:[ (12_000_000, 0) ] ~medium:mem in
  Alcotest.(check bool) "completes" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "recovery consistent despite excluded pages" true
    (Consistency.is_consistent
       ~reference:reference.Ft_runtime.Engine.visible
       ~observed:r.Ft_runtime.Engine.visible)

let test_checkpoint_exclusion_cheaper () =
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  let full = run_renderer ~excluded:false ~kills:[] ~medium:disk in
  let slim = run_renderer ~excluded:true ~kills:[] ~medium:disk in
  Alcotest.(check bool)
    (Printf.sprintf "excluding scratch shrinks commits (%d vs %d ns)"
       slim.Ft_runtime.Engine.sim_time_ns full.Ft_runtime.Engine.sim_time_ns)
    true
    (slim.Ft_runtime.Engine.sim_time_ns < full.Ft_runtime.Engine.sim_time_ns)

(* --- the new protocols, end to end ---------------------------------------- *)

let test_sbl_logs_receives () =
  (* two-process ping-pong where the server's only ND is receives: SBL
     never commits it *)
  let client =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("s", Int 0);
            While
              ( Var "i" <: Int 5,
                [
                  Send_msg (Int 1, Var "i");
                  Recv_msg ("v", "s");
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
            Let ("s", Int 0);
            While
              ( Var "i" <: Int 5,
                [
                  Recv_msg ("v", "s");
                  Send_msg (Var "s", Var "v" *: Int 3);
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Protocols.sender_based_logging }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile client; Ft_vm.Asm.compile server |] ()
  in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "server commits nothing" 0
    r.Ft_runtime.Engine.commit_counts.(1);
  Alcotest.(check bool) "save-work still holds" true
    (Save_work.holds r.Ft_runtime.Engine.trace)

(* --- no orphan survives recovery (message logging, end to end) ------------ *)

(* Two processes whose visible output depends on the client's transient
   random draws through a full message round-trip: the exact shape that
   creates orphans.  After any stop-failure schedule, the logging
   protocols must leave a Save-work-clean trace and an output consistent
   with the failure-free run — i.e. every orphan was detected and rolled
   back with the crashed process. *)
let rand_pingpong_iters = 5

let rand_client =
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("r", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int rand_pingpong_iters,
              [
                Set ("r", Rand %: Int 100);
                Send_msg (Int 1, Var "r");
                Recv_msg ("v", "s");
                (* encode the iteration so outputs are injective across
                   iterations even when two draws collide *)
                Output ((Var "v" *: Int 8) +: Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

let rand_server =
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int rand_pingpong_iters,
              [
                Recv_msg ("v", "s");
                Send_msg (Var "s", (Var "v" *: Int 3) +: Int 1);
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

let run_rand_pingpong ~protocol ~kills =
  let kernel = Ft_os.Kernel.create ~seed:9 ~nprocs:2 () in
  let cfg = { Ft_runtime.Engine.default_config with protocol; kills } in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:
        [| Ft_vm.Asm.compile rand_client; Ft_vm.Asm.compile rand_server |]
      ()
  in
  r

(* The failure-free runs are clean: Save-work holds on the recorded
   trace (the oracle's domain is crash-free traces — a killed run's
   trace keeps its dead rolled-back segments) and all outputs arrive. *)
let test_logging_pingpong_clean () =
  List.iter
    (fun protocol ->
      let r = run_rand_pingpong ~protocol ~kills:[] in
      Alcotest.(check bool)
        (protocol.Protocol.spec_name ^ " completes")
        true
        (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      Alcotest.(check bool)
        (protocol.Protocol.spec_name ^ " save-work holds")
        true
        (Save_work.holds r.Ft_runtime.Engine.trace);
      Alcotest.(check int)
        (protocol.Protocol.spec_name ^ " all outputs")
        rand_pingpong_iters
        (List.length r.Ft_runtime.Engine.visible))
    Protocols.message_logging

(* §2.3 consistency against the space of legal failure-free runs, which
   for this application is: one fresh value per iteration in order, each
   decoding to a server reply [3r + 1] for some draw [r], with
   duplicates only ever repeating an already-emitted value (rollback
   re-emission).  Transient draws the crash legitimately un-commits may
   be redrawn — that is optimistic logging working as designed — so the
   observed stream need not match one particular reference run.  An
   orphaned server surviving with rolled-back client state would either
   wedge the run (no Completed) or emit a reply escaping the lineage. *)
let no_orphan_survives_prop =
  QCheck.Test.make
    ~name:"no orphan survives recovery (CAUSAL-LOG / OPTIMISTIC)" ~count:40
    QCheck.(
      triple bool
        (list_of_size (Gen.int_bound 2) (In_range.int 1 12))
        (0 -- 1))
    (fun (opt, kill_ms, victim) ->
      let protocol =
        if opt then Protocols.optimistic else Protocols.causal_log
      in
      let kills = List.map (fun ms -> (ms * 1_000_000, victim)) kill_ms in
      let r = run_rand_pingpong ~protocol ~kills in
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
      r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
      && List.length fresh = rand_pingpong_iters
      && List.for_all (fun (idx, f) -> f mod 8 = idx) (List.mapi (fun i f -> (i, f)) fresh)
      && List.for_all (fun f -> f / 8 mod 3 = 1 && f / 8 >= 1 && f / 8 < 300) fresh)

(* --- scripted conformance replays (mc interchange format) ----------------- *)

(* The same taint chain the model checker's counterexamples print,
   replayed through the model: an unlogged draw crossing a message
   must pull the sender into a shared dependent round before the
   receiver's visible; a logged draw must not. *)
let logging_script_text =
  "p0 nd transient\n\
   p0 send 1\n\
   p1 recv\n\
   p1 internal\n\
   p1 visible 7\n\
   p0 nd fixed loggable\n\
   p0 send 1\n\
   p1 recv\n\
   p1 visible 9\n"

let test_logging_conformance_scripts () =
  match Script.steps_of_string logging_script_text with
  | Error e -> Alcotest.fail e
  | Ok script ->
      List.iter
        (fun spec ->
          Alcotest.(check bool)
            (spec.Protocol.spec_name ^ " upholds on the scripted taint chain")
            true
            (Save_work.holds (replay spec ~nprocs:2 script)))
        Protocols.message_logging;
      let t = replay Protocols.causal_log ~nprocs:2 script in
      Alcotest.(check bool) "a dependent round was committed" true
        (List.exists
           (fun e ->
             match e.Event.kind with
             | Event.Commit_round _ -> true
             | _ -> false)
           (Trace.events t))

(* --- conformance harness regressions ------------------------------------- *)

(* A Receive with nothing pending waits; once nothing can ever arrive
   it resolves to a skip: no event recorded, no protocol reaction — the
   rest of the script replays as if the receive were never written. *)
let test_receive_nothing_pending_skipped () =
  let script =
    [
      { Script.pid = 0; op = Model.Receive };
      { Script.pid = 0; op = Model.Visible };
    ]
  in
  let t = replay Protocols.cpvs ~nprocs:2 script in
  let events = Trace.events t in
  Alcotest.(check bool) "no receive recorded" false
    (List.exists
       (fun e ->
         match e.Event.kind with Event.Receive _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "visible still recorded" true
    (List.exists
       (fun e ->
         match e.Event.kind with Event.Visible _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "save-work upheld" true (Save_work.holds t)

(* Save_work.holds is exactly "violations is empty" — exercised on a
   protocol that does convict (NO-COMMIT), so agreement is nontrivial. *)
let violations_agree_prop spec =
  QCheck.Test.make
    ~name:(spec.Protocol.spec_name ^ ": upholds iff violations empty")
    ~count:150 (arb_script 3)
    (fun script ->
      let t = replay spec ~nprocs:3 script in
      Save_work.holds t = (Save_work.violations t = []))

(* [In_range.int] keeps a failing case inside its range while it
   shrinks: an always-failing property over [2, 30] reports 2, where
   QCheck's own [(2 -- 30)] shrinks to 1. *)
let test_in_range_shrinks_in_range () =
  let cell =
    QCheck.Test.make_cell ~count:10 (In_range.int 2 30) (fun _ -> false)
  in
  let rand = Random.State.make [| 0 |] in
  match QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand cell) with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
      Alcotest.(check int) "shrunk to the lower bound" 2
        c.QCheck.TestResult.instance
  | _ -> Alcotest.fail "an always-failing property must fail"

(* [In_range.list] does the same for a list's length: QCheck's own
   [list_of_size (Gen.int_range 1 12) (0 -- 20)] shrinks an
   always-failing property to the empty list. *)
let test_in_range_list_shrinks_in_range () =
  let cell =
    QCheck.Test.make_cell ~count:10
      QCheck.(In_range.list 1 12 (0 -- 20))
      (fun _ -> false)
  in
  let rand = Random.State.make [| 0 |] in
  match QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand cell) with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
      Alcotest.(check int) "shrunk to one element" 1
        (List.length c.QCheck.TestResult.instance)
  | _ -> Alcotest.fail "an always-failing property must fail"

let tests =
  List.map QCheck_alcotest.to_alcotest
    (conformance_tests
    @ [ no_commit_violates; stop_failure_prop;
        scheduler_matches_engines_prop; consistency_dup_bursts_prop;
        consistency_reorder_extra_prop; no_orphan_survives_prop ]
    @ List.map violations_agree_prop
        [ Protocols.no_commit; Protocols.cpvs; Protocols.cand_log;
          Protocols.causal_log ])
  @ [
      Alcotest.test_case "logging conformance scripts" `Quick
        test_logging_conformance_scripts;
      Alcotest.test_case "logging ping-pong clean (no kills)" `Quick
        test_logging_pingpong_clean;
      Alcotest.test_case "receive with nothing pending skipped" `Quick
        test_receive_nothing_pending_skipped;
      Alcotest.test_case "resource expansion (2.6)" `Quick
        test_resource_expansion;
      Alcotest.test_case "checkpoint exclusion consistent (2.6)" `Quick
        test_checkpoint_exclusion_consistent;
      Alcotest.test_case "checkpoint exclusion cheaper (2.6)" `Quick
        test_checkpoint_exclusion_cheaper;
      Alcotest.test_case "sbl logs receives" `Quick test_sbl_logs_receives;
      Alcotest.test_case "in-range shrinker stays in range" `Quick
        test_in_range_shrinks_in_range;
      Alcotest.test_case "in-range list shrinker keeps its length" `Quick
        test_in_range_list_shrinks_in_range;
    ]

let () =
  Alcotest.run "ft_props"
    [
      ("properties", tests);
      ( "fork",
        List.map QCheck_alcotest.to_alcotest
          [
            fork_matches_scratch_prop;
            crash_free_steps_prop;
            fork_isolation_prop;
          ] );
    ]
