(* Benchmark harness.

   Running this executable does two things:

   1. Regenerates every table and figure of the paper's evaluation at a
      reduced scale and prints the same rows the paper reports (use
      `bin/main.exe all` for full-scale runs).

   2. Runs Bechamel micro/meso benchmarks: one Test.make per table and
      figure (timing the machinery that regenerates it), plus the
      ablations called out in DESIGN.md and micro-benchmarks of the core
      primitives (Save-work checking, dangerous-path coloring, VM
      interpretation, checkpoint commit/restore). *)

open Bechamel
open Toolkit

(* --- part 1: regenerate the evaluation ---------------------------------- *)

(* The bench regenerates through the same job lists the CLI sweeps use
   (no store: a bench run should always measure, never resume), on every
   available core. *)
let sweep ~name js =
  Ft_exp.Exp.lookup (Ft_exp.Exp.run_sweep ~quiet:true ~name js)

let regenerate () =
  print_string
    (Ft_harness.Report.section "Figure 3: the protocol space");
  print_string (Ft_core.Protocol_space.render Ft_core.Protocol_space.all);
  let fig8_lookup =
    sweep ~name:"figure8"
      (List.concat_map
         (Ft_harness.Figure8.jobs ~scale:0.25)
         Ft_harness.Figure8.all_apps)
  in
  List.iter
    (fun app ->
      print_string
        (Ft_harness.Figure8.render
           (Ft_harness.Figure8.of_records ~scale:0.25 app fig8_lookup)))
    Ft_harness.Figure8.all_apps;
  let both = [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ] in
  let t1_lookup =
    sweep ~name:"table1"
      (List.concat_map
         (fun app -> Ft_harness.Table1.jobs ~target_crashes:15 ~app ())
         both)
  in
  List.iter
    (fun app ->
      let rows =
        Ft_harness.Table1.of_records ~target_crashes:15 ~app t1_lookup
      in
      print_string (Ft_harness.Table1.render ~app rows);
      if app = Ft_harness.Table1.Nvi then begin
        let v = Ft_harness.Table1.average rows /. 100. in
        print_string
          (Ft_harness.Analysis.render_conflict
             (Ft_harness.Analysis.conflict ~violation_rate:v ()))
      end)
    both;
  let t2_lookup =
    sweep ~name:"table2"
      (List.concat_map
         (fun app -> Ft_harness.Table2.jobs ~target_crashes:15 ~app ())
         both)
  in
  List.iter
    (fun app ->
      print_string
        (Ft_harness.Table2.render ~app
           (Ft_harness.Table2.of_records ~target_crashes:15 ~app t2_lookup)))
    both

(* --- part 1b: pool speedup meso-benchmark -------------------------------- *)

(* Wall-clock for one full Figure-8 regeneration (scale 0.25) at -j 1
   vs -j N: the headline number for the parallel runner.  On a
   single-core box the speedup hovers around 1x; report it rather than
   assert it. *)
let pool_speedup () =
  let jobs () =
    List.concat_map
      (Ft_harness.Figure8.jobs ~scale:0.25)
      Ft_harness.Figure8.all_apps
  in
  let time workers =
    let t0 = Unix.gettimeofday () in
    ignore
      (Ft_exp.Exp.run_sweep ~workers ~quiet:true ~name:"figure8" (jobs ()));
    Unix.gettimeofday () -. t0
  in
  let n = Ft_exp.Pool.default_workers () in
  let serial = time 1 in
  let parallel = if n = 1 then serial else time n in
  print_string
    (Ft_harness.Report.section "Exp.Pool speedup (Figure 8 @ scale 0.25)");
  Printf.printf "-j 1 : %6.2f s\n" serial;
  Printf.printf "-j %-2d: %6.2f s\n" n parallel;
  (* A sub-microsecond parallel wall-clock (clock granularity, or a
     fully warm store) would print [inf]; report n/a instead. *)
  let speedup =
    if parallel < 1e-6 then None else Some (serial /. parallel)
  in
  Printf.printf "speedup: %s on %d core%s\n"
    (match speedup with Some s -> Printf.sprintf "%.2fx" s | None -> "n/a")
    n
    (if n = 1 then "" else "s");
  (serial, parallel, n, speedup)

(* --- part 2: bechamel tests ---------------------------------------------- *)

(* Tiny workload runs so each benchmark sample stays in the millisecond
   range. *)
let tiny_nvi () =
  Ft_apps.Nvi.workload
    ~params:{ Ft_apps.Nvi.small_params with Ft_apps.Nvi.keystrokes = 40 } ()

let tiny_magic () =
  Ft_apps.Magic.workload
    ~params:{ Ft_apps.Magic.small_params with Ft_apps.Magic.commands = 10 } ()

let tiny_xpilot () =
  Ft_apps.Xpilot.workload
    ~params:{ Ft_apps.Xpilot.small_params with Ft_apps.Xpilot.frames = 10 } ()

let tiny_treadmarks () =
  Ft_apps.Treadmarks.workload
    ~params:
      { Ft_apps.Treadmarks.small_params with
        Ft_apps.Treadmarks.bodies = 8; iters = 2 }
    ()

let run_workload ?(protocol = Ft_core.Protocols.cpvs)
    ?(medium = Ft_runtime.Checkpointer.Reliable_memory)
    ?(cost = Ft_runtime.Checkpointer.default_cost)
    ?(page_size = 64) (w : Ft_apps.Workload.t) =
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with protocol; medium; cost;
        page_size }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  assert (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  r

(* One Test.make per figure. *)
let fig3 =
  Test.make ~name:"fig3_protocol_space"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ft_core.Protocol_space.render Ft_core.Protocol_space.all)))

let fig8 name mk =
  Test.make ~name
    (Staged.stage (fun () -> Sys.opaque_identity (run_workload (mk ()))))

let fig8a = fig8 "fig8a_nvi" tiny_nvi
let fig8b = fig8 "fig8b_magic" tiny_magic
let fig8c = fig8 "fig8c_xpilot" tiny_xpilot
let fig8d = fig8 "fig8d_treadmarks" tiny_treadmarks

let tiny_barnes_hut () =
  Ft_apps.Treadmarks.workload
    ~params:
      { Ft_apps.Treadmarks.tree_params with
        Ft_apps.Treadmarks.bodies = 8; iters = 2 }
    ()

let fig8d_tree = fig8 "fig8d_barnes_hut_tree" tiny_barnes_hut

(* One Test.make per table: a single-fault-type mini campaign. *)
let table1_bench =
  Test.make ~name:"table1_app_faults"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ft_harness.Table1.campaign ~target_crashes:2 ~max_attempts:10
              ~mk_workload:(fun () ->
                Ft_harness.Table1.workload Ft_harness.Table1.Postgres)
              Ft_faults.Fault_type.Destination_reg)))

let table2_bench =
  Test.make ~name:"table2_os_faults"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ft_harness.Table2.run ~target_crashes:2 ~max_attempts:6
              ~app:Ft_harness.Table1.Postgres ())))

(* Ablations (DESIGN.md §5). *)
let ablation_medium =
  Test.make ~name:"ablation_disk_commit"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (run_workload
              ~medium:(Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default)
              (tiny_nvi ()))))

let ablation_page_size page_size =
  Test.make ~name:(Printf.sprintf "ablation_page_%d" page_size)
    (Staged.stage (fun () ->
         Sys.opaque_identity (run_workload ~page_size (tiny_magic ()))))

let ablation_crash_early check_every =
  Test.make ~name:(Printf.sprintf "ablation_checks_every_%d" check_every)
    (Staged.stage (fun () ->
         let w =
           Ft_apps.Nvi.workload
             ~params:
               { Ft_apps.Nvi.small_params with
                 Ft_apps.Nvi.keystrokes = 40; check_every }
             ()
         in
         Sys.opaque_identity (run_workload w)))

(* Dispatch overhead of the experiment pool itself: a batch of no-op
   jobs, serial vs spawned domains.  The per-job cost is what a sweep
   pays on top of the engine work. *)
let micro_pool_dispatch workers =
  let jobs =
    List.init 64 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "noop/%d" i) ~seed:i (fun () ->
            Ft_exp.Jstore.Int i))
  in
  Test.make ~name:(Printf.sprintf "micro_pool_dispatch_j%d" workers)
    (Staged.stage (fun () ->
         Sys.opaque_identity (Ft_exp.Pool.run ~workers jobs)))

let micro_jstore_roundtrip =
  let row =
    Ft_exp.Store.record_to_json
      {
        Ft_exp.Store.key = "bench/jstore/row";
        seed = 42;
        status = Ft_exp.Store.Completed;
        value =
          Ft_exp.Jstore.Obj
            [
              ("m", Ft_exp.Metrics.to_json Ft_exp.Metrics.zero);
              ("fps", Ft_exp.Jstore.Float 30.5);
            ];
        duration_s = 1.25;
      }
  in
  Test.make ~name:"micro_jstore_roundtrip"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ft_exp.Jstore.of_string (Ft_exp.Jstore.to_string row))))

(* Micro-benchmarks of the core primitives. *)
let micro_save_work =
  let trace =
    let t = Ft_core.Trace.create ~nprocs:2 in
    for i = 0 to 99 do
      ignore
        (Ft_core.Trace.record t ~pid:(i mod 2)
           (if i mod 3 = 0 then Ft_core.Event.Nd Ft_core.Event.Transient
            else if i mod 3 = 1 then Ft_core.Event.Commit
            else Ft_core.Event.Visible i))
    done;
    t
  in
  Test.make ~name:"micro_save_work_check"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Ft_core.Save_work.violations trace)))

let micro_dangerous =
  let g =
    let edges = ref [] in
    for i = 0 to 199 do
      edges :=
        ( i,
          (i + 1) mod 200,
          if i mod 7 = 0 then Ft_core.State_graph.Transient_nd
          else if i mod 11 = 0 then Ft_core.State_graph.Fixed_nd
          else Ft_core.State_graph.Det )
        :: !edges
    done;
    Ft_core.State_graph.make ~nstates:200 ~edges:!edges ~crash_states:[ 77 ]
      ()
  in
  Test.make ~name:"micro_dangerous_paths"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Ft_core.Dangerous_paths.dangerous_edges g)))

let micro_vm =
  let code =
    Ft_vm.Asm.(
      compile
        (program
           [
             func "main" []
               [
                 Let ("i", Int 0);
                 While
                   ( Var "i" <: Int 1000,
                     [ Set_heap (Var "i" %: Int 256, Var "i" *: Var "i");
                       Set ("i", Var "i" +: Int 1) ] );
               ];
           ]))
  in
  Test.make ~name:"micro_vm_interpreter"
    (Staged.stage (fun () ->
         let m = Ft_vm.Machine.create ~heap_size:1024 code in
         (* drive through the engine's batched stepper *)
         while Ft_vm.Machine.is_running m do
           ignore (Ft_vm.Machine.step_n m 4096)
         done;
         Sys.opaque_identity (Ft_vm.Machine.icount m)))

(* Persisted-log commit vs the pre-torture heap-list design: the same
   transactional write pattern against a Vista whose undo log lives in
   region words (current) and against a minimal reimplementation of the
   old OCaml-list undo log.  Guards that persisting the log does not
   regress the failure-free commit cost Figure 8 rests on. *)
module Heap_list_log = struct
  type t = {
    region : Ft_stablemem.Rio.t;
    mutable undo : (int * int array) list;
    mutable commits : int;
  }

  let create region = { region; undo = []; commits = 0 }

  let write_range t ~off values =
    t.undo <- (off, Ft_stablemem.Rio.sub t.region ~off ~len:(Array.length values)) :: t.undo;
    Ft_stablemem.Rio.blit_in t.region ~off values

  let commit t =
    t.undo <- [];
    t.commits <- t.commits + 1
end

let commit_pattern ~write_range =
  (* 8 records of 64 words: the shape of a small page checkpoint *)
  let page = Array.make 64 7 in
  for i = 0 to 7 do
    write_range ~off:(i * 64) page
  done

(* Setup (region, checkpointer, machine, kernel) is hoisted OUT of the
   staged closures below: the timed body is one transaction/commit, not
   the construction of the rig around it. *)
let micro_vista_persisted_log =
  let v =
    Ft_stablemem.Vista.create ~data_words:1024
      (Ft_stablemem.Rio.create ~size:2048)
  in
  Test.make ~name:"micro_commit_persisted_log"
    (Staged.stage (fun () ->
         Ft_stablemem.Vista.begin_tx v;
         commit_pattern ~write_range:(fun ~off values ->
             Ft_stablemem.Vista.write_range v ~off values);
         Ft_stablemem.Vista.commit v;
         Sys.opaque_identity (Ft_stablemem.Vista.commits v)))

let micro_vista_heap_list =
  let v = Heap_list_log.create (Ft_stablemem.Rio.create ~size:2048) in
  Test.make ~name:"micro_commit_heap_list"
    (Staged.stage (fun () ->
         commit_pattern ~write_range:(fun ~off values ->
             Heap_list_log.write_range v ~off values);
         Heap_list_log.commit v;
         Sys.opaque_identity v.Heap_list_log.commits))

let micro_checkpoint =
  let ck =
    Ft_runtime.Checkpointer.create
      ~medium:Ft_runtime.Checkpointer.Reliable_memory ~nprocs:1
      ~heap_words:4096 ~stack_words:256 ()
  in
  let m = Ft_vm.Machine.create ~heap_size:4096 [| Ft_vm.Instr.Halt |] in
  let heap = Ft_vm.Machine.heap m in
  for i = 0 to 511 do
    Ft_vm.Memory.write heap i i
  done;
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  let kstate = Ft_os.Kernel.snapshot_kstate kernel 0 in
  (* Flush the initial dirtying into checkpoint zero so each timed run
     commits the same 8-page delta. *)
  ignore (Ft_runtime.Checkpointer.commit ck ~pid:0 ~machine:m ~kstate);
  let tick = ref 0 in
  Test.make ~name:"micro_checkpoint_commit"
    (Staged.stage (fun () ->
         incr tick;
         (* Re-dirty 8 pages with fresh values: every run commits a real
            8-dirty-page checkpoint. *)
         for p = 0 to 7 do
           Ft_vm.Memory.write heap (p * 64) ((p * 64) + !tick)
         done;
         Sys.opaque_identity
           (Ft_runtime.Checkpointer.commit ck ~pid:0 ~machine:m ~kstate)))

(* The model checker's DFS over a small bound: one complete exhaustive
   exploration (schedules x crash points, memoized) per run. *)
let micro_mc_dfs =
  let program = Ft_mc.Model.default_program ~nprocs:2 ~depth:5 in
  Test.make ~name:"micro_mc_dfs_2x5"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ft_mc.Checker.check ~spec:Ft_core.Protocols.cpvs
              ~defect:Ft_mc.Model.Honest ~program ())))

(* Channel goodput: payload messages per simulated second through the
   raw transport at increasing loss rates — what retransmission costs
   before any engine machinery is involved (DESIGN.md §3e).  Each point
   pushes a paced stream of messages down one link and drains the
   queues to completion. *)
let net_burst ~loss ~n =
  let delivered = ref 0 and last_ns = ref 1 in
  let policy _ _ = Ft_net.Policy.make ~drop:loss () in
  let t =
    Ft_net.Transport.create ~policy ~seed:7 ~nprocs:2 ~latency_ns:20_000
      ~jitter_ns:5_000
      ~deliver:(fun ~at ~src:_ ~dst:_ () ->
        incr delivered;
        if at > !last_ns then last_ns := at)
      ()
  in
  let gap = 5_000 (* one send per 5µs *) in
  for i = 0 to n - 1 do
    Ft_net.Transport.send t ~now:(i * gap) ~src:0 ~dst:1 ();
    Ft_net.Transport.pump t ~now:(i * gap)
  done;
  let now = ref (n * gap) in
  while Ft_net.Transport.pending t do
    (match Ft_net.Transport.next_event t with
    | Some ts -> now := max (!now + 1) ts
    | None -> incr now);
    Ft_net.Transport.pump t ~now:!now
  done;
  (!delivered, !last_ns, Ft_net.Transport.stats t)

let net_goodput ?(n = 10_000) () =
  print_string
    (Ft_harness.Report.section
       (Printf.sprintf "Channel goodput (Ft_net.Transport, %dk msgs, one link)"
          (n / 1000)));
  List.map
    (fun loss ->
      let delivered, last_ns, s = net_burst ~loss ~n in
      let goodput = float_of_int delivered /. (float_of_int last_ns /. 1e9) in
      Printf.printf
        "loss %3.0f%%: %5d/%d delivered, %6d transmissions (%4.1f%% rtx), goodput %8.0f msgs/s\n"
        (100. *. loss) delivered n s.Ft_net.Transport.transmissions
        (100.
        *. float_of_int s.Ft_net.Transport.retransmits
        /. float_of_int (max 1 s.Ft_net.Transport.transmissions))
        goodput;
      (loss, delivered, goodput))
    [ 0.0; 0.05; 0.20 ]

let micro_net_transport loss =
  Test.make
    ~name:(Printf.sprintf "micro_net_loss_%d" (int_of_float (100. *. loss)))
    (Staged.stage (fun () ->
         Sys.opaque_identity (net_burst ~loss ~n:256)))

(* The bounded determinant store's full lifecycle at fleet width:
   append round-robin across owners, then commit and retire every
   owner's log — the per-commit GC work the logging protocols add on
   top of the checkpoint itself.  Live count returns to zero each run,
   so samples are independent. *)
let micro_determinant_gc_bench =
  let nprocs = 8 in
  let kernel = Ft_os.Kernel.create ~nprocs () in
  Test.make ~name:"micro_determinant_gc"
    (Staged.stage (fun () ->
         for i = 0 to 255 do
           ignore (Ft_os.Kernel.det_append kernel (i mod nprocs) : bool)
         done;
         for pid = 0 to nprocs - 1 do
           Ft_os.Kernel.det_note_commit kernel pid;
           Ft_os.Kernel.det_retire kernel pid
         done;
         Sys.opaque_identity (Ft_os.Kernel.det_live kernel)))

(* The per-message data path dependency-vector piggybacking adds to a
   send/receive pair under CAUSAL-LOG/OPTIMISTIC: the sender ticks and
   snapshots its vector, the receiver merges it — 256 messages around a
   ring at an 8-process fleet width. *)
let micro_vclock_piggyback =
  let nprocs = 8 in
  let dvs = Array.init nprocs (fun _ -> Ft_core.Vclock.create nprocs) in
  Test.make ~name:"micro_vclock_piggyback"
    (Staged.stage (fun () ->
         for i = 0 to 255 do
           let src = i mod nprocs and dst = (i + 1) mod nprocs in
           Ft_core.Vclock.tick dvs.(src) src;
           let piggyback = Ft_core.Vclock.copy dvs.(src) in
           Ft_core.Vclock.merge_into ~into:dvs.(dst) piggyback
         done;
         Sys.opaque_identity dvs))

(* The escalation ladder end to end: a deterministic wild jump planted
   in place of the echo loop's Halt crashes every replay at the same
   point, so the full ladder burns its whole budget — two generic
   replays, two deep rollbacks, three perturbed replays — classifying
   the fault Bohrbug and giving up.  Times the recovery machinery
   itself: restore, deep rollback re-commit, kernel perturbation,
   sequenced-egress absorption. *)
let micro_classifier_replay =
  let code =
    let c =
      Ft_vm.Asm.(
        compile
          (program
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
             ]))
    in
    Array.iteri
      (fun i ins -> if ins = Ft_vm.Instr.Halt then c.(i) <- Ft_vm.Instr.Jmp (-1))
      c;
    c
  in
  Test.make ~name:"micro_classifier_replay"
    (Staged.stage (fun () ->
         let kernel = Ft_os.Kernel.create ~nprocs:1 () in
         Ft_os.Kernel.set_input kernel 0
           (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000
              [ 3; 1; 4; 1 ]);
         let cfg =
           {
             Ft_runtime.Engine.default_config with
             policy = Some Ft_recovery.Policy.full;
           }
         in
         Sys.opaque_identity
           (Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] ())))

(* The multi-tenant scheduler end to end on a small fleet: build the
   postgres tenants, drive every one to its verdict. *)
let micro_serve_fleet =
  Test.make ~name:"micro_serve_fleet_8x20"
    (Staged.stage (fun () ->
         let s =
           Ft_harness.Serve.fleet ~tenants:8 ~queries_per_tenant:20 ~seed:5 ()
         in
         Sys.opaque_identity (Ft_runtime.Scheduler.run s)))

(* Fleet scheduler throughput (scheduling steps per wall second) and the
   tail latency of a tiny oracle-checked campaign — the units `ft serve`
   reports, tracked across PRs in BENCH_RESULTS.json. *)
let serve_stats ~quick () =
  print_string
    (Ft_harness.Report.section "Fleet scheduler (ft serve units)");
  let tenants = if quick then 8 else 32 in
  let sched =
    Ft_harness.Serve.fleet ~tenants ~queries_per_tenant:50 ~seed:11 ()
  in
  let t0 = Unix.gettimeofday () in
  ignore (Ft_runtime.Scheduler.run sched);
  let dt = Unix.gettimeofday () -. t0 in
  let steps = Ft_runtime.Scheduler.steps sched in
  let rate = if dt < 1e-6 then 0. else float_of_int steps /. dt in
  Printf.printf
    "scheduler: %d tenants, %d steps in %6.3f s = %9.0f steps/s\n" tenants
    steps dt rate;
  let report =
    Ft_harness.Serve.run ~quiet:true
      { Ft_harness.Serve.smoke_params with seed = 11 }
  in
  let p999 =
    match report.Ft_harness.Serve.summaries with
    | s :: _ -> s.Ft_harness.Serve.s_p999_ns
    | [] -> 0
  in
  Printf.printf "p999     : %d ns (smoke fleet, CPVS, kills on)\n" p999;
  (rate, p999)

(* Rescued fraction per escalation rung on the smoke campaign, plus the
   quarantine breaker on a one-looper fleet — the `ft rescue` / `ft
   serve --poison` units, tracked across PRs in BENCH_RESULTS.json. *)
let rescue_stats () =
  print_string
    (Ft_harness.Report.section "Escalating recovery (ft rescue smoke units)");
  let r = Ft_harness.Rescue.run ~quiet:true Ft_harness.Rescue.smoke_spec in
  List.iter
    (fun s ->
      Printf.printf "%-8s rescued %3.0f%% of %d crashed runs (L0 %d, L1 %d, L2 %d)\n"
        s.Ft_harness.Rescue.l_name
        (100. *. Ft_harness.Rescue.ladder_rescued_frac s)
        s.Ft_harness.Rescue.l_crashes s.Ft_harness.Rescue.l_rescued_by_rung.(0)
        s.Ft_harness.Rescue.l_rescued_by_rung.(1)
        s.Ft_harness.Rescue.l_rescued_by_rung.(2))
    (Ft_harness.Rescue.summaries r);
  Ft_harness.Rescue.bench_kv r

let quarantine_stats () =
  let report =
    Ft_harness.Serve.run ~quiet:true
      { Ft_harness.Serve.smoke_params with seed = 11; poison = 1 }
  in
  let kv =
    List.filter
      (fun (k, _) ->
        let suffix s = String.length k >= String.length s
                       && String.sub k (String.length k - String.length s)
                            (String.length s) = s in
        suffix "quarantined_tenants" || suffix "crash_loop_events")
      (Ft_harness.Serve.bench_kv report)
  in
  List.iter
    (fun (k, v) ->
      Printf.printf "%-36s %s\n" k (Ft_exp.Jstore.to_string v))
    kv;
  kv

(* MTTR when the recovery path itself crashes: the smoke fleet with
   Poisson nested-failure injection and the determinant cap armed — the
   `ft serve --recovery-crash-rate` units, tracked across PRs in
   BENCH_RESULTS.json. *)
let nested_stats () =
  print_string
    (Ft_harness.Report.section
       "Nested failures (ft serve recovery-crash units)");
  let report =
    Ft_harness.Serve.run ~quiet:true
      ~protocols:(Ft_core.Protocols.cpvs :: Ft_core.Protocols.message_logging)
      { Ft_harness.Serve.smoke_params with
        seed = 11; recovery_crash_rate = 2.0 }
  in
  let kv =
    List.filter
      (fun (k, _) ->
        let suffix s =
          String.length k >= String.length s
          && String.sub k (String.length k - String.length s)
               (String.length s) = s
        in
        k = "serve_mttr_nested_ns" || suffix "nested_crashes"
        || suffix "det_high_water" || suffix "det_forced_flushes")
      (Ft_harness.Serve.bench_kv report)
  in
  List.iter
    (fun (k, v) -> Printf.printf "%-36s %s\n" k (Ft_exp.Jstore.to_string v))
    kv;
  kv

(* Asynchronous dependent commits vs 2PC: the same distributed workload
   under the global-round protocol (CPVS commits every process at every
   visible) and the message-logging pair (piggybacked dependency
   vectors, commits covering only the causally tainted set).  NO-COMMIT
   is the sim-time baseline. *)
let async_commit_stats () =
  print_string
    (Ft_harness.Report.section
       "Async dependent commit vs 2PC (treadmarks, scale 0.2)");
  let w () =
    Ft_harness.Figure8.workload ~scale:0.2 Ft_harness.Figure8.Treadmarks
  in
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let base =
    Ft_exp.Metrics.of_result
      (Ft_harness.Figure8.run_once ~w:(w ())
         ~protocol:Ft_core.Protocols.no_commit ~medium:mem ~seed:42)
  in
  List.map
    (fun proto ->
      let m =
        Ft_exp.Metrics.of_result
          (Ft_harness.Figure8.run_once ~w:(w ()) ~protocol:proto ~medium:mem
             ~seed:42)
      in
      let ovh =
        Ft_harness.Figure8.overhead ~baseline:base.Ft_exp.Metrics.sim_time_ns
          m.Ft_exp.Metrics.sim_time_ns
      in
      Printf.printf "%-12s %5d commits  %6d logged  overhead %5.1f%%\n"
        proto.Ft_core.Protocol.spec_name m.Ft_exp.Metrics.commits
        m.Ft_exp.Metrics.logged_events ovh;
      (proto.Ft_core.Protocol.spec_name, m.Ft_exp.Metrics.commits, ovh))
    Ft_core.Protocols.[ cpvs; cpv_2pc; causal_log; optimistic ]

(* Checker throughput in model states per second, the unit DESIGN.md
   quotes for exploration budgets. *)
let mc_throughput ?(depth = 6) () =
  print_string
    (Ft_harness.Report.section "Model checker throughput (states/sec)");
  let program = Ft_mc.Model.default_program ~nprocs:2 ~depth in
  List.map
    (fun spec ->
      let t0 = Unix.gettimeofday () in
      let s = Ft_mc.Checker.check ~spec ~defect:Ft_mc.Model.Honest ~program () in
      let dt = Unix.gettimeofday () -. t0 in
      let rate =
        if dt < 1e-6 then 0. else float_of_int s.Ft_mc.Checker.nodes /. dt
      in
      Printf.printf
        "%-12s %5d nodes %6d runs %8d steps in %6.3fs = %9.0f states/s\n"
        spec.Ft_core.Protocol.spec_name s.Ft_mc.Checker.nodes
        s.Ft_mc.Checker.runs s.Ft_mc.Checker.steps dt rate;
      (spec.Ft_core.Protocol.spec_name, rate))
    Ft_core.Protocols.figure8_extended

let tests =
  [
    fig3; fig8a; fig8b; fig8c; fig8d; fig8d_tree; table1_bench;
    table2_bench;
    ablation_medium; ablation_page_size 16; ablation_page_size 256;
    ablation_crash_early 1; ablation_crash_early 32; micro_save_work;
    micro_dangerous; micro_vm; micro_vista_persisted_log;
    micro_vista_heap_list; micro_checkpoint; micro_mc_dfs;
    micro_serve_fleet; micro_classifier_replay; micro_pool_dispatch 1;
  ]
  (* On a single-core box the default pool is 1 worker: running the
     dispatch bench twice under the same name would emit a duplicate
     JSON key. *)
  @ (let dw = Ft_exp.Pool.default_workers () in
     if dw > 1 then [ micro_pool_dispatch dw ] else [])
  @ [
      micro_jstore_roundtrip; micro_net_transport 0.0; micro_net_transport 0.2;
      micro_vclock_piggyback; micro_determinant_gc_bench;
    ]

let run_benchmarks ~quota_s () =
  print_string
    (Ft_harness.Report.section "Bechamel benchmarks (ns per run, OLS)");
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second quota_s) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ x ] -> x
            | _ -> nan
          in
          Printf.printf "%-28s %14.0f ns/run  (%d samples)\n"
            (Test.Elt.name elt) ns raw.Benchmark.stats.Benchmark.samples;
          (Test.Elt.name elt, ns))
        (Test.elements test))
    tests

(* --- machine-readable trajectory (BENCH_RESULTS.json) -------------------- *)

(* One JSON object per bench invocation: ns/run per bechamel test, the
   Figure-8 regeneration wall-clock, channel goodput and model-checker
   throughput — the numbers EXPERIMENTS.md tracks across PRs.  Keys
   this invocation did not produce (a committed full run's
   [figure8_scale025] under [--quick], serve's merged metrics) are kept
   from the existing file: the CI schema gate requires the key set only
   ever to grow. *)
let write_json ~path ~quick ~fig8 ~mc ~goodput ~commit_panel ~serve ~rescue
    ~quarantine ~nested ~bechamel =
  let open Ft_exp.Jstore in
  let fresh =
    ([ ("schema", String "ft-bench/1"); ("quick", Bool quick) ]
      @ (match fig8 with
        | None -> []
        | Some (serial, parallel, workers, speedup) ->
            [
              ( "figure8_scale025",
                Obj
                  [
                    ("serial_s", Float serial);
                    ("parallel_s", Float parallel);
                    ("workers", Int workers);
                    ( "speedup",
                      match speedup with Some s -> Float s | None -> Null );
                  ] );
            ])
      @ (let steps_per_s, p999 = serve in
         [
           ("serve_sched_steps_per_s", Float steps_per_s);
           ("serve_p999_ns", Int p999);
         ])
      @ rescue @ quarantine @ nested
      @ [
          ( "mc_states_per_s",
            Obj (List.map (fun (name, r) -> (name, Float r)) mc) );
          ( "async_commit_vs_2pc",
            Obj
              (List.map
                 (fun (name, commits, ovh) ->
                   ( name,
                     Obj
                       [
                         ("commits", Int commits);
                         ("overhead_pct", Float ovh);
                       ] ))
                 commit_panel) );
          ( "net_goodput",
            List
              (List.map
                 (fun (loss, delivered, gp) ->
                   Obj
                     [
                       ("loss", Float loss);
                       ("delivered", Int delivered);
                       ("msgs_per_s", Float gp);
                     ])
                 goodput) );
          ( "bechamel_ns_per_run",
            Obj (List.map (fun (name, ns) -> (name, Float ns)) bechamel) );
        ])
  in
  match Ft_harness.Report.merge_bench ~path fresh with
  | Ok () -> Printf.printf "\nbench: wrote %s\n" path
  | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2

let () =
  let json_path = ref None and quick = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s (usage: bench [--quick] [--json PATH])\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  (* --quick: CI smoke mode.  Skips the full evaluation regeneration and
     the serial-vs-parallel Figure-8 timing, shrinks the mc bound and the
     goodput burst, and cuts the bechamel quota — same JSON shape, small
     enough to run on every push. *)
  let fig8 =
    if quick then None
    else begin
      regenerate ();
      Some (pool_speedup ())
    end
  in
  let mc = mc_throughput ~depth:(if quick then 5 else 6) () in
  let goodput = net_goodput ~n:(if quick then 2_000 else 10_000) () in
  let commit_panel = async_commit_stats () in
  let serve = serve_stats ~quick () in
  let rescue = rescue_stats () in
  let quarantine = quarantine_stats () in
  let nested = nested_stats () in
  let bechamel = run_benchmarks ~quota_s:(if quick then 0.05 else 0.5) () in
  (match !json_path with
  | Some path ->
      write_json ~path ~quick ~fig8 ~mc ~goodput ~commit_panel ~serve ~rescue
        ~quarantine ~nested ~bechamel
  | None -> ());
  print_endline "\nbench: done."
