(* ft — command-line driver for the failure-transparency experiments.

   Subcommands regenerate each table and figure of the paper's
   evaluation; `ft all` produces the complete report used to fill in
   EXPERIMENTS.md. *)

open Cmdliner

let print_space () =
  print_string (Ft_harness.Report.section "Figure 3: the protocol space");
  print_string (Ft_core.Protocol_space.render Ft_core.Protocol_space.all);
  print_newline ();
  print_endline
    "Protocols on the horizontal axis (visible-effort 0) prevent recovery";
  print_endline "from propagation failures (Lose-work, Section 2.6):";
  List.iter
    (fun p ->
      if Ft_core.Protocol_space.prevents_propagation_recovery p then
        Printf.printf "  - %s\n" p.Ft_core.Protocol_space.name)
    Ft_core.Protocol_space.all

(* Sweep plumbing: every sweep-backed subcommand lists its jobs, hands
   them to the experiment runner (parallel workers, resumable results
   store), and renders from the returned records.  Progress and the
   skipped-job count go to stderr, so stdout is byte-identical across
   [-j] settings and warm/cold stores. *)

type sweep_opts = { workers : int option; fresh : bool; out_dir : string }

(* A command that ran to completion but found violations: report on
   stderr and exit 1 — distinct from usage errors, which cmdliner
   reports itself and which exit 2 (see the eval match at the bottom). *)
let fail_run msg =
  Printf.eprintf "ft: %s\n%!" msg;
  1

(* Runs [jobs] as the sweep [name] and hands its lookup to [report],
   which prints the report and returns the command's exit code.  A job
   that died without a verdict fails the command whatever the report
   says: after the report, its key and error go to stderr and the exit
   code is at least 1. *)
let sweep opts ~name jobs report =
  let sr =
    Ft_exp.Exp.run_sweep ?workers:opts.workers ~fresh:opts.fresh
      ~out_dir:opts.out_dir ~name jobs
  in
  let code = report (Ft_exp.Exp.lookup sr) in
  match Ft_exp.Exp.failures sr with
  | [] -> code
  | dead ->
      Printf.eprintf "ft: %d sweep jobs died without a verdict\n"
        (List.length dead);
      List.iter (fun (key, error) -> Printf.eprintf "  %s: %s\n%!" key error)
        dead;
      max code 1

let run_figure8 apps scale seed opts =
  sweep opts ~name:"figure8"
    (List.concat_map (Ft_harness.Figure8.jobs ~scale ~seed) apps)
    (fun lookup ->
      List.iter
        (fun app ->
          print_string
            (Ft_harness.Figure8.render
               (Ft_harness.Figure8.of_records ~scale ~seed app lookup)))
        apps;
      0)

(* Tables 1 and 2: one sweep over [apps]; [report] gets each app's
   rows. *)
let table_sweep opts ~name ~jobs ~of_records apps report =
  sweep opts ~name (List.concat_map jobs apps) (fun lookup ->
      report (List.map (fun app -> (app, of_records app lookup)) apps))

let table1_sweep crashes opts =
  table_sweep opts ~name:"table1"
    ~jobs:(fun app -> Ft_harness.Table1.jobs ~target_crashes:crashes ~app ())
    ~of_records:(fun app lookup ->
      Ft_harness.Table1.of_records ~target_crashes:crashes ~app lookup)

let table2_sweep crashes opts =
  table_sweep opts ~name:"table2"
    ~jobs:(fun app -> Ft_harness.Table2.jobs ~target_crashes:crashes ~app ())
    ~of_records:(fun app lookup ->
      Ft_harness.Table2.of_records ~target_crashes:crashes ~app lookup)

let run_table1 apps crashes opts =
  table1_sweep crashes opts apps (fun t1s ->
      List.iter
        (fun (app, rows) -> print_string (Ft_harness.Table1.render ~app rows))
        t1s;
      0)

let run_table2 apps crashes opts =
  table2_sweep crashes opts apps (fun t2s ->
      List.iter
        (fun (app, rows) -> print_string (Ft_harness.Table2.render ~app rows))
        t2s;
      0)

let run_analysis crashes opts =
  let nvi = Ft_harness.Table1.Nvi in
  table1_sweep crashes opts [ nvi ] (fun t1s ->
      let t1 = List.assoc nvi t1s in
      let v = Ft_harness.Table1.average t1 /. 100. in
      print_string (Ft_harness.Table1.render ~app:nvi t1);
      print_string
        (Ft_harness.Analysis.render_conflict
           (Ft_harness.Analysis.conflict ~violation_rate:v ()));
      table2_sweep crashes opts [ nvi ] (fun t2s ->
          let t2 = List.assoc nvi t2s in
          print_string (Ft_harness.Table2.render ~app:nvi t2);
          print_string
            (Ft_harness.Analysis.render_propagation ~app:"nvi"
               ~os_failure_rate:(Ft_harness.Table2.average t2 /. 100.)
               ~violation_rate:v);
          0))

let run_all scale crashes seed opts =
  print_space ();
  let figure8 = run_figure8 Ft_harness.Figure8.all_apps scale seed opts in
  let both = [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ] in
  let tables =
    table1_sweep crashes opts both (fun t1s ->
        table2_sweep crashes opts both (fun t2s ->
            List.iter
              (fun (app, rows) ->
                print_string (Ft_harness.Table1.render ~app rows))
              t1s;
            List.iter
              (fun (app, rows) ->
                print_string (Ft_harness.Table2.render ~app rows))
              t2s;
            let violation_rate app =
              Ft_harness.Table1.average (List.assoc app t1s) /. 100.
            in
            print_string
              (Ft_harness.Analysis.render_conflict
                 (Ft_harness.Analysis.conflict
                    ~violation_rate:(violation_rate Ft_harness.Table1.Nvi) ()));
            List.iter
              (fun (app, rows) ->
                print_string
                  (Ft_harness.Analysis.render_propagation
                     ~app:(Ft_harness.Table1.app_name app)
                     ~os_failure_rate:(Ft_harness.Table2.average rows /. 100.)
                     ~violation_rate:(violation_rate app)))
              t2s;
            0))
  in
  max figure8 tables

(* Crash-point torture: sweep an injected crash over every word write
   of a multi-page commit (or a seeded sample) and verify recovery.
   Exits non-zero on any atomicity violation, so CI can gate on it. *)
let run_torture points seed defect opts =
  let sc = { Ft_harness.Torture.default_scenario with seed } in
  let defect =
    if defect then Some Ft_stablemem.Vista.Publish_header_first else None
  in
  let total_writes, post = Ft_harness.Torture.measure ?defect sc in
  sweep opts ~name:"torture"
    (Ft_harness.Torture.jobs ?defect ~points ~total_writes ~post sc)
    (fun lookup ->
      let report =
        Ft_harness.Torture.of_records ?defect ~points ~total_writes sc lookup
      in
      print_string (Ft_harness.Torture.render report);
      if report.Ft_harness.Torture.violations = [] then 0
      else fail_run "torture found atomicity violations")

(* Netstorm: run the protocol space across an unreliable network and
   verify retransmission keeps every run complete and consistent.
   Exits non-zero on any violation or wedged run, so CI can gate on
   it. *)
let run_netstorm loss dup reorder partition apps scale seed opts =
  let points =
    if loss = None && dup = None && reorder = None && not partition then
      Ft_harness.Netstorm.default_points
    else
      [
        Ft_harness.Netstorm.custom_point ?loss ?dup ?reorder ~partition ();
      ]
  in
  sweep opts ~name:"netstorm"
    (Ft_harness.Netstorm.jobs ~scale ~seed ~points ~apps ())
    (fun lookup ->
      let cells =
        Ft_harness.Netstorm.of_records ~scale ~seed ~points ~apps lookup
      in
      print_string (Ft_harness.Netstorm.render ~points ~apps cells);
      if Ft_harness.Netstorm.violations cells = [] then 0
      else fail_run "netstorm found violations")

(* [--smoke] runs a fixed campaign: the flags it would ignore, when
   given, are a usage error instead. *)
let smoke_conflict smoke flags =
  match List.filter_map (fun (f, g) -> if g then Some f else None) flags with
  | _ :: _ as given when smoke ->
      Some
        (Printf.sprintf "%s cannot be combined with --smoke"
           (String.concat ", " given))
  | _ -> None

(* Serve: the fleet-scale campaign — many postgres tenants per
   multi-tenant scheduler, open-loop load, Poisson kills, SLO-grade
   reporting.  Exits non-zero on any oracle violation or zero goodput,
   so CI can gate on it. *)
let run_serve procs requests protocols crash_rate recovery_crash_rate det_cap
    storm shard_size interval_ns poison smoke seed opts =
  let d = Ft_harness.Serve.default_params in
  let given o = Option.is_some o and v o default = Option.value o ~default in
  match
    smoke_conflict smoke
      [
        ("--procs", given procs);
        ("--requests", given requests);
        ("--crash-rate", given crash_rate);
        ("--det-cap", given det_cap);
        ("--shard-size", given shard_size);
        ("--interval-ns", given interval_ns);
      ]
  with
  | Some msg -> `Error (true, msg)
  | None ->
  let procs = v procs d.procs and requests = v requests d.requests in
  let fleet = if smoke then Ft_harness.Serve.smoke_params.procs else procs in
  if (not smoke) && requests < procs then
    `Error
      (true,
       Printf.sprintf
         "--requests (%d) must be at least --procs (%d): every tenant \
          serves at least one query" requests procs)
  else if poison > fleet then
    `Error
      (true,
       Printf.sprintf
         "--poison (%d) must be at most the fleet size (%d): a tenant is \
          poisoned at most once" poison fleet)
  else
  let p =
    if smoke then
      {
        Ft_harness.Serve.smoke_params with
        seed;
        storm;
        poison;
        recovery_crash_rate;
      }
    else
      {
        d with
        procs;
        requests;
        crash_rate = v crash_rate d.crash_rate;
        recovery_crash_rate;
        det_cap = v det_cap d.det_cap;
        storm;
        seed;
        shard_size = v shard_size d.shard_size;
        interval_ns = v interval_ns d.interval_ns;
        poison;
      }
  in
  `Ok
    (sweep opts ~name:"serve" (Ft_harness.Serve.jobs ~protocols p)
       (fun lookup ->
         let report = Ft_harness.Serve.of_records ~protocols p lookup in
         print_string (Ft_harness.Serve.render report);
         let goodput_ok =
           List.for_all
             (fun s -> s.Ft_harness.Serve.s_goodput > 0.)
             report.Ft_harness.Serve.summaries
         in
         if Ft_harness.Serve.clean report && goodput_ok then 0
         else fail_run "serve found violations or zero goodput"))

(* Rescue: inject recurring application faults — the kind generic replay
   re-executes — and measure how much of the crashed-run mass each
   escalation rung (deep rollback, perturbed replay) reclaims.  Exits
   non-zero on any Consistency violation at any rung, so CI can gate on
   it. *)
let run_rescue apps protocols ladder_names crashes smoke seed opts =
  match
    smoke_conflict smoke
      [
        ("--app", apps <> []);
        ("--protocol", protocols <> []);
        ("--ladder", ladder_names <> []);
        ("--crashes", Option.is_some crashes);
      ]
  with
  | Some msg -> `Error (true, msg)
  | None ->
  let d = Ft_harness.Rescue.default_spec in
  let or_default l default = if l = [] then default else l in
  let spec =
    if smoke then { Ft_harness.Rescue.smoke_spec with seed0 = seed }
    else
      {
        d with
        apps = or_default apps d.apps;
        protocols = or_default (List.concat protocols) d.protocols;
        ladder_names = or_default ladder_names d.ladder_names;
        target_crashes = Option.value crashes ~default:d.target_crashes;
        seed0 = seed;
      }
  in
  `Ok
    (sweep opts ~name:"rescue" (Ft_harness.Rescue.jobs spec) (fun lookup ->
         let report = Ft_harness.Rescue.of_records spec lookup in
         print_string (Ft_harness.Rescue.render report);
         if Ft_harness.Rescue.clean report then 0
         else fail_run "rescue found consistency violations"))

let run_ablation opts =
  sweep opts ~name:"ablation" (Ft_harness.Ablation.jobs ()) (fun lookup ->
      print_string (Ft_harness.Ablation.render_records lookup);
      0)

(* Bounded model checking: every schedule x every crash point of a
   small program, per protocol, plus the mutant suite that keeps the
   checker honest.  Exits non-zero on any honest-protocol violation or
   any surviving mutant, so CI can gate on it. *)
let run_mc nprocs depth specs mutants no_prune engine_xcheck opts =
  let program = Ft_mc.Model.default_program ~nprocs ~depth in
  (* a mutant may bring its own program: some kills need a shape the
     default menus cannot express (the 3-process causal chain) *)
  let mutant_program m =
    match m.Ft_mc.Mutants.program with Some p -> p | None -> program
  in
  (* each protocol's and each mutant's jobs, built once: the sweep runs
     them and the report reads their stats back *)
  let honest_jobs =
    List.map
      (fun spec ->
        ( spec,
          Ft_mc.Checker.jobs ~no_prune
            ~specs:[ (spec, Ft_mc.Model.Honest) ]
            ~program () ))
      specs
  in
  let mutant_jobs =
    if not mutants then []
    else
      List.map
        (fun m ->
          ( m,
            Ft_mc.Checker.jobs ~no_prune ~lose_work:false
              ~specs:[ (m.Ft_mc.Mutants.spec, m.Ft_mc.Mutants.defect) ]
              ~program:(mutant_program m) () ))
        Ft_mc.Mutants.all
  in
  let xcheck_jobs =
    if engine_xcheck then Ft_mc.Engine_xcheck.jobs ~specs () else []
  in
  sweep opts ~name:"mc"
    (List.concat_map snd honest_jobs
    @ List.concat_map snd mutant_jobs
    @ xcheck_jobs)
  @@ fun lookup ->
  (* a stored row that does not decode is a job without a verdict, never
     a clean one; a job that died has no row, and the sweep reports it *)
  let undecoded = ref [] in
  let decode of_value j =
    match lookup j.Ft_exp.Job.key with
    | None -> None
    | Some v ->
        let s = of_value v in
        if Option.is_none s then undecoded := j.Ft_exp.Job.key :: !undecoded;
        s
  in
  let stats_of jobs =
    List.fold_left
      (fun acc j ->
        match decode Ft_mc.Checker.stats_of_value j with
        | Some s -> Ft_mc.Checker.add_stats acc s
        | None -> acc)
      Ft_mc.Checker.zero_stats jobs
  in
  Printf.printf "Model checker: %d procs x %d events, program %s\n" nprocs
    depth
    (String.sub (Ft_mc.Model.program_digest program) 0 12);
  Printf.printf "%-12s %8s %8s %8s %10s %6s\n" "protocol" "nodes" "runs"
    "memo" "steps" "viol";
  let honest_viol = ref 0 in
  List.iter
    (fun (spec, jobs) ->
      let s = stats_of jobs in
      let nviol = List.length s.Ft_mc.Checker.violations in
      honest_viol := !honest_viol + nviol;
      Printf.printf "%-12s %8d %8d %8d %10d %6d\n"
        spec.Ft_core.Protocol.spec_name s.Ft_mc.Checker.nodes
        s.Ft_mc.Checker.runs s.Ft_mc.Checker.memo_hits
        s.Ft_mc.Checker.steps nviol;
      List.iteri
        (fun i v ->
          if i < 3 then
            Printf.printf "    %s at sched=%s crash=%s: %s\n"
              (Ft_mc.Checker.oracle_to_string v.Ft_mc.Checker.v_oracle)
              (Ft_mc.Checker.prefix_to_string v.Ft_mc.Checker.v_prefix)
              (Ft_mc.Checker.crash_to_string v.Ft_mc.Checker.v_crash)
              v.Ft_mc.Checker.v_detail)
        s.Ft_mc.Checker.violations)
    honest_jobs;
  let surviving = ref [] in
  if mutants then begin
    print_newline ();
    print_endline "Mutant suite (every mutant must be killed):";
    List.iter
      (fun (m, jobs) ->
        let s = stats_of jobs in
        match s.Ft_mc.Checker.violations with
        | [] ->
            surviving := m.Ft_mc.Mutants.mutant_name :: !surviving;
            Printf.printf "  %-22s SURVIVED (expected: %s)\n"
              m.Ft_mc.Mutants.mutant_name m.Ft_mc.Mutants.expected
        | v :: _ ->
            let r =
              Ft_mc.Shrink.minimize ~lose_work:false
                ~spec:m.Ft_mc.Mutants.spec ~defect:m.Ft_mc.Mutants.defect
                ~program:(mutant_program m) v
            in
            Printf.printf
              "  %-22s killed by %s (%d violations); shrunk repro:\n"
              m.Ft_mc.Mutants.mutant_name
              (Ft_mc.Checker.oracle_to_string v.Ft_mc.Checker.v_oracle)
              (List.length s.Ft_mc.Checker.violations);
            String.split_on_char '\n'
              (Ft_mc.Shrink.to_script ~spec:m.Ft_mc.Mutants.spec
                 ~defect:m.Ft_mc.Mutants.defect r)
            |> List.iter (fun l -> Printf.printf "    | %s\n" l))
      mutant_jobs
  end;
  let xcheck_failures = ref 0 in
  if engine_xcheck then begin
    print_newline ();
    print_endline "Engine cross-check (real VM + kernel + checkpointer):";
    List.iter
      (fun j ->
        Option.iter
          (fun s ->
            xcheck_failures :=
              !xcheck_failures + List.length s.Ft_mc.Engine_xcheck.x_failures;
            Printf.printf "  %-40s runs=%5d kills=%5d failures=%d\n"
              j.Ft_exp.Job.key s.Ft_mc.Engine_xcheck.x_runs
              s.Ft_mc.Engine_xcheck.x_kills
              (List.length s.Ft_mc.Engine_xcheck.x_failures);
            List.iteri
              (fun i f -> if i < 3 then Printf.printf "    %s\n" f)
              s.Ft_mc.Engine_xcheck.x_failures)
          (decode Ft_mc.Engine_xcheck.stats_of_value j))
      xcheck_jobs
  end;
  let code =
    if !honest_viol > 0 then
      fail_run "model checker found protocol violations"
    else if !surviving <> [] then
      fail_run ("surviving mutants: " ^ String.concat ", " !surviving)
    else if !xcheck_failures > 0 then
      fail_run "engine cross-check failures"
    else 0
  in
  match List.rev !undecoded with
  | [] -> code
  | keys ->
      Printf.eprintf
        "ft: %d mc jobs without a verdict (stored row does not decode)\n"
        (List.length keys);
      List.iter (Printf.eprintf "  %s\n%!") keys;
      max code 1

(* Run one application under one protocol and print the run's vitals. *)
let run_single app protocol medium seed scale kills_ms =
  let w = Ft_harness.Figure8.workload ~scale app in
  let kills = List.map (fun ms -> (ms * 1_000_000, 0)) kills_ms in
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with protocol; medium; kills }
  in
  let kernel = Ft_apps.Workload.kernel ~seed w in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
  in
  Printf.printf "app        : %s (%d process%s)\n"
    (Ft_harness.Figure8.app_name app) w.nprocs
    (if w.nprocs = 1 then "" else "es");
  Printf.printf "protocol   : %s on %s\n" protocol.Ft_core.Protocol.spec_name
    (match medium with
    | Ft_runtime.Checkpointer.Reliable_memory -> "reliable memory"
    | Ft_runtime.Checkpointer.Disk _ -> "synchronous disk");
  Printf.printf "outcome    : %s\n"
    (Ft_runtime.Engine.outcome_name r.Ft_runtime.Engine.outcome);
  Printf.printf "sim time   : %.3f s\n"
    (float_of_int r.Ft_runtime.Engine.sim_time_ns /. 1e9);
  Printf.printf "commits    : %s (total %d)\n"
    (String.concat "/"
       (Array.to_list
          (Array.map string_of_int r.Ft_runtime.Engine.commit_counts)))
    (Array.fold_left ( + ) 0 r.Ft_runtime.Engine.commit_counts);
  Printf.printf "nd events  : %d (%d logged)\n"
    (Array.fold_left ( + ) 0 r.Ft_runtime.Engine.nd_counts)
    (Array.fold_left ( + ) 0 r.Ft_runtime.Engine.logged_counts);
  Printf.printf "visible    : %d events\n"
    (List.length r.Ft_runtime.Engine.visible);
  Printf.printf "crashes    : %d (recoveries %d)\n"
    r.Ft_runtime.Engine.crashes r.Ft_runtime.Engine.recoveries;
  (* Whole-trace Save-work reads a killed logging run's dead
     rolled-back segments as uncovered ND (the oracle's domain is
     crash-free traces — the checker runs it on the crash-free
     prefix), so report it only where it is meaningful. *)
  Printf.printf "save-work  : %s\n"
    (if
       r.Ft_runtime.Engine.crashes > 0
       && protocol.Ft_core.Protocol.style <> Ft_core.Protocol.Coordinated
     then "n/a (killed logging run; oracle domain is crash-free traces)"
     else if Ft_core.Save_work.holds r.Ft_runtime.Engine.trace then
       "upheld"
     else "VIOLATED");
  if app = Ft_harness.Figure8.Xpilot then
    Printf.printf "frame rate : %.1f fps\n" (Ft_apps.Xpilot.fps r);
  `Ok 0

(* Disassemble a workload's compiled code (a development aid: the fault
   model operates at this level). *)
let run_disasm app pid =
  let w = Ft_harness.Figure8.workload ~scale:0.05 app in
  if pid < 0 || pid >= Array.length w.Ft_apps.Workload.programs then
    `Error (false, "no such process")
  else begin
    print_endline (Ft_vm.Asm.disassemble w.Ft_apps.Workload.programs.(pid));
    `Ok 0
  end

(* --- cmdliner plumbing --------------------------------------------------- *)

(* One converter per vocabulary, shared by every subcommand that takes
   it.  A value outside it is a usage error: cmdliner names the flag
   and the command exits 2. *)

let named ~what name of_name =
  Arg.conv
    ( (fun s ->
        Option.to_result ~none:(`Msg ("unknown " ^ what ^ " " ^ s))
          (of_name s)),
      fun fmt v -> Format.pp_print_string fmt (name v) )

let fig8_app =
  named ~what:"app" Ft_harness.Figure8.app_name Ft_harness.Figure8.app_of_name

let table1_app =
  Arg.enum
    (List.map
       (fun a -> (Ft_harness.Table1.app_name a, a))
       [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ])

(* Torture's crash points: [all] or [sample:N] with N > 0. *)
let torture_points =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "all" -> Ok Ft_harness.Torture.All
        | l when String.starts_with ~prefix:"sample:" l -> (
            match int_of_string_opt (String.sub l 7 (String.length l - 7)) with
            | Some n when n > 0 -> Ok (Ft_harness.Torture.Sample n)
            | _ -> Error (`Msg ("bad sample count in " ^ s)))
        | _ -> Error (`Msg (s ^ " is not all or sample:N"))),
      fun fmt -> function
        | Ft_harness.Torture.All -> Format.pp_print_string fmt "all"
        | Ft_harness.Torture.Sample n -> Format.fprintf fmt "sample:%d" n )

(* Protocol names resolve through [Protocols.by_name]; with [~all]
   (serve's spelling), [all] stands for the Figure 8 seven.  Each value
   parses to a list so that [all] and a single name share one type. *)
let protocols ?(all = false) () =
  named ~what:"protocol"
    (fun ps ->
      String.concat "," (List.map (fun p -> p.Ft_core.Protocol.spec_name) ps))
    (fun s ->
      if all && s = "all" then Some Ft_core.Protocols.figure8
      else Option.map (fun p -> [ p ]) (Ft_core.Protocols.by_name s))

(* Repeatable [--protocol]; [default] when absent. *)
let protocols_arg ?all ~default ~doc () =
  Term.(const (function [] -> default | ps -> List.concat ps)
        $ Arg.(value & opt_all (protocols ?all ()) []
               & info [ "protocol" ] ~doc))

let bounded base ok what =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser base s with
        | Ok v when not (ok v) -> Error (`Msg (s ^ " is not " ^ what))
        | r -> r),
      Arg.conv_printer base )

let pos_int = bounded Arg.int (fun n -> n > 0) "a positive integer"
let nonneg_int = bounded Arg.int (fun n -> n >= 0) "a non-negative integer"

(* A flag [--smoke] rejects: [None] when absent; [show] is the default
   the help prints. *)
let smoke_opt parse ~show ?docv name ~doc =
  Arg.(value & opt (some ~none:show parse) None & info [ name ] ?docv ~doc)

let nonneg_float =
  bounded Arg.float
    (fun x -> x >= 0. && Float.is_finite x)
    "a non-negative number"

let probability =
  bounded Arg.float (fun p -> p >= 0. && p <= 1.) "a probability in [0,1]"

let scale = bounded Arg.float (fun x -> x > 0. && x <= 1.) "a scale in (0,1]"

let scale_arg =
  Arg.(value & opt scale 1.0 & info [ "scale" ] ~doc:"Workload scale (0,1].")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Kernel RNG seed.")

let crashes_arg =
  Arg.(value & opt pos_int 50 & info [ "crashes" ]
         ~doc:"Target crash count per fault type.")

let jobs_arg =
  Arg.(value & opt nonneg_int 0
       & info [ "j"; "jobs" ]
           ~doc:"Worker domains for the sweep (0 = one per core).")

let fresh_arg =
  Arg.(value & flag
       & info [ "fresh" ]
           ~doc:"Ignore cached results and recompute every job.")

let out_arg =
  Arg.(value & opt string Ft_exp.Exp.default_out_dir
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory of the per-sweep results stores.")

let sweep_opts_term =
  let mk j fresh out_dir =
    { workers = (if j = 0 then None else Some j); fresh; out_dir }
  in
  Term.(const mk $ jobs_arg $ fresh_arg $ out_arg)

let fig8_apps_arg default =
  Arg.(value & opt_all fig8_app default
       & info [ "app" ] ~doc:"Application (repeatable).")

let fig8_app_arg =
  Arg.(value & opt fig8_app Ft_harness.Figure8.Nvi
       & info [ "app" ] ~doc:"Application.")

let t_apps_arg =
  Arg.(value & opt_all table1_app
         [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ]
       & info [ "app" ] ~doc:"Application: nvi or postgres (repeatable).")

let space_cmd =
  Cmd.v (Cmd.info "space" ~doc:"Print the Figure 3 protocol space.")
    Term.(const (fun () -> print_space (); 0) $ const ())

let figure8_cmd =
  Cmd.v (Cmd.info "figure8" ~doc:"Regenerate Figure 8 (a-d).")
    Term.(const run_figure8 $ fig8_apps_arg Ft_harness.Figure8.all_apps
          $ scale_arg $ seed_arg $ sweep_opts_term)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1.")
    Term.(const run_table1 $ t_apps_arg $ crashes_arg $ sweep_opts_term)

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2.")
    Term.(const run_table2 $ t_apps_arg $ crashes_arg $ sweep_opts_term)

let analysis_cmd =
  Cmd.v (Cmd.info "analysis" ~doc:"Run the Section 4 composed analysis.")
    Term.(const run_analysis $ crashes_arg $ sweep_opts_term)

let torture_cmd =
  let points_arg =
    Arg.(value & opt torture_points Ft_harness.Torture.All
         & info [ "points" ] ~docv:"SPEC"
             ~doc:"Crash points to explore: $(b,all) or $(b,sample:N).")
  in
  let defect_arg =
    Arg.(value & flag
         & info [ "defect" ]
             ~doc:"Arm the publish-header-first write-ordering bug (the \
                   checker must then report violations).")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Crash a commit at every word write and verify recovery.")
    Term.(const run_torture $ points_arg $ seed_arg $ defect_arg
          $ sweep_opts_term)

let netstorm_cmd =
  let rate name doc =
    Arg.(value & opt (some probability) None & info [ name ] ~docv:"P" ~doc)
  in
  let loss_arg = rate "loss" "Per-frame drop probability." in
  let dup_arg = rate "dup" "Per-frame duplication probability." in
  let reorder_arg = rate "reorder" "Per-frame reorder probability." in
  let partition_arg =
    Arg.(value & flag
         & info [ "partition" ]
             ~doc:"Cut the 0<->1 link mid-run and heal it.")
  in
  let scale_arg =
    Arg.(value & opt scale 0.25
         & info [ "scale" ] ~doc:"Workload scale (0,1].")
  in
  Cmd.v
    (Cmd.info "netstorm"
       ~doc:"Sweep the protocols across a lossy, reordering, partitioning \
             network.")
    Term.(const run_netstorm $ loss_arg $ dup_arg $ reorder_arg
          $ partition_arg $ fig8_apps_arg Ft_harness.Netstorm.default_apps
          $ scale_arg $ seed_arg $ sweep_opts_term)

let serve_cmd =
  let d = Ft_harness.Serve.default_params in
  let procs_arg =
    smoke_opt pos_int ~show:(string_of_int d.procs) "procs"
      ~doc:"Tenant instances in the fleet."
  in
  let requests_arg =
    smoke_opt nonneg_int ~show:(string_of_int d.requests) "requests"
      ~doc:"Total queries, fleet-wide."
  in
  let proto_arg =
    protocols_arg ~all:true ~default:[ Ft_core.Protocols.cpvs ]
      ~doc:"Protocol (repeatable; $(b,all) for the Figure 8 seven; the \
            message-logging pair $(b,causal-log) and $(b,optimistic) \
            resolve by name; default CPVS)."
      ()
  in
  let crash_arg =
    smoke_opt nonneg_float ~show:(string_of_float d.crash_rate) ~docv:"R"
      "crash-rate" ~doc:"Expected kills per tenant per simulated second."
  in
  let recovery_crash_arg =
    Arg.(value & opt nonneg_float 0.
         & info [ "recovery-crash-rate" ] ~docv:"R"
             ~doc:"Expected nested failures per tenant per campaign: \
                   crashes injected into the recovery path itself \
                   (mid-restore, mid-cascade, mid-commit-round).")
  in
  let det_cap_arg =
    smoke_opt nonneg_int ~show:(string_of_int d.det_cap) ~docv:"N" "det-cap"
      ~doc:"Hard cap on live determinants per tenant (0 = uncapped): past \
            it the kernel forces a flush instead of growing the log."
  in
  let storm_arg =
    let tier =
      Arg.enum
        (List.map
           (fun pt -> (pt.Ft_harness.Netstorm.label, pt))
           Ft_harness.Netstorm.default_points)
    in
    Arg.(value & opt (some tier) None
         & info [ "storm" ] ~docv:"TIER"
             ~doc:"Netstorm weather on the shard-shared transport: \
                   $(b,calm), $(b,breeze), $(b,gale) or $(b,storm).")
  in
  let shard_arg =
    smoke_opt pos_int ~show:(string_of_int d.shard_size) "shard-size"
      ~doc:"Tenants per scheduler/job."
  in
  let interval_arg =
    smoke_opt nonneg_int ~show:(string_of_int d.interval_ns) "interval-ns"
      ~doc:"Open-loop arrival interval per tenant, ns."
  in
  let poison_arg =
    Arg.(value & opt nonneg_int 0
         & info [ "poison" ] ~docv:"N"
             ~doc:"Crash-looping tenants: plant a deterministic Bohrbug in \
                   the first $(docv) tenants (every generic replay \
                   re-executes it) and arm the per-tenant quarantine \
                   circuit breaker fleet-wide.")
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Small fixed fleet for CI: asserts non-zero goodput and \
                   clean oracles.  Honours $(b,--protocol), $(b,--seed), \
                   $(b,--storm), $(b,--poison) and \
                   $(b,--recovery-crash-rate); the other fleet flags are \
                   usage errors with it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the postgres workload across a fleet of tenants under \
             continuous fault injection and report latency percentiles, \
             goodput and MTTR.")
    Term.(ret
            (const run_serve $ procs_arg $ requests_arg $ proto_arg
            $ crash_arg $ recovery_crash_arg $ det_cap_arg $ storm_arg
            $ shard_arg $ interval_arg $ poison_arg $ smoke_arg $ seed_arg
            $ sweep_opts_term))

let rescue_cmd =
  let apps_arg =
    Arg.(value & opt_all table1_app []
         & info [ "app" ]
             ~doc:"Application: nvi or postgres (repeatable; default both).")
  in
  let proto_arg =
    Arg.(value & opt_all (protocols ()) []
         & info [ "protocol" ]
             ~doc:"Protocol (repeatable; default CPVS and CBNDVS).")
  in
  let ladder_arg =
    let ladder =
      Arg.enum (List.map (fun n -> (n, n)) Ft_harness.Rescue.ladders)
    in
    Arg.(value & opt_all ladder []
         & info [ "ladder" ]
             ~doc:"Recovery ladder: $(b,generic), $(b,deep) or $(b,full) \
                   (repeatable; default all three).")
  in
  let crashes_arg =
    smoke_opt pos_int
      ~show:(string_of_int Ft_harness.Rescue.default_spec.target_crashes)
      "crashes"
      ~doc:"Target crashed runs per (app, fault, protocol, ladder) cell."
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Small fixed campaign for CI: nvi, generic vs full, \
                   asserts zero Consistency violations at every rung.  \
                   Honours $(b,--seed); $(b,--app), $(b,--protocol), \
                   $(b,--ladder) and $(b,--crashes) are usage errors with \
                   it.")
  in
  let rescue_seed_arg =
    Arg.(value & opt int 7_000
         & info [ "seed" ] ~doc:"Base seed for the per-cell trial streams.")
  in
  Cmd.v
    (Cmd.info "rescue"
       ~doc:"Measure how much of the unrecoverable app-fault mass each \
             escalation rung (deep rollback, perturbed replay) rescues.")
    Term.(ret
            (const run_rescue $ apps_arg $ proto_arg $ ladder_arg
            $ crashes_arg $ smoke_arg $ rescue_seed_arg $ sweep_opts_term))

let ablation_cmd =
  Cmd.v (Cmd.info "ablation" ~doc:"Run the DESIGN.md ablations (2.6).")
    Term.(const run_ablation $ sweep_opts_term)

let mc_cmd =
  let procs_arg =
    let procs =
      bounded Arg.int
        (fun n -> n > 0 && n <= Ft_mc.Checker.max_procs)
        (Printf.sprintf "an integer from 1 to %d" Ft_mc.Checker.max_procs)
    in
    Arg.(value & opt procs 2
         & info [ "procs" ] ~doc:
             (Printf.sprintf "Number of model processes, at most %d."
                Ft_mc.Checker.max_procs))
  in
  let depth_arg =
    Arg.(value & opt pos_int 6
         & info [ "depth" ] ~doc:"Events per process.")
  in
  let proto_arg =
    protocols_arg ~default:Ft_core.Protocols.figure8_extended
      ~doc:"Protocol to check (repeatable; default: all of Figure 8)." ()
  in
  let mutants_arg =
    Arg.(value & flag
         & info [ "mutants" ]
             ~doc:"Also run the mutant suite; a surviving mutant fails the \
                   run.")
  in
  let no_prune_arg =
    Arg.(value & flag
         & info [ "no-prune" ] ~doc:"Disable state-hash memoization.")
  in
  let xcheck_arg =
    Arg.(value & flag
         & info [ "engine-xcheck" ]
             ~doc:"Cross-check schedules and crash points on the real \
                   runtime engine.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Model-check every schedule and crash point of a small program.")
    Term.(const run_mc $ procs_arg $ depth_arg $ proto_arg $ mutants_arg
          $ no_prune_arg $ xcheck_arg $ sweep_opts_term)

let run_cmd =
  (* without [~all] every value parses to exactly one protocol *)
  let proto_arg =
    Term.(const List.hd
          $ Arg.(value & opt (protocols ()) [ Ft_core.Protocols.cpvs ]
                 & info [ "protocol" ] ~doc:"Protocol."))
  in
  let medium_arg =
    let medium =
      Arg.enum
        [
          ("memory", Ft_runtime.Checkpointer.Reliable_memory);
          ("disk", Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default);
        ]
    in
    Arg.(value & opt medium Ft_runtime.Checkpointer.Reliable_memory
         & info [ "medium" ] ~doc:"memory or disk.")
  in
  let kills_arg =
    Arg.(value & opt_all nonneg_int []
         & info [ "kill-at" ] ~doc:"Stop failure at this millisecond.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application under one protocol.")
    Term.(ret (const run_single $ fig8_app_arg $ proto_arg $ medium_arg
               $ seed_arg $ scale_arg $ kills_arg))

let disasm_cmd =
  let pid_arg =
    Arg.(value & opt int 0 & info [ "pid" ] ~doc:"Process index.")
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload's compiled code.")
    Term.(ret (const run_disasm $ fig8_app_arg $ pid_arg))

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure.")
    Term.(const run_all $ scale_arg $ crashes_arg $ seed_arg
          $ sweep_opts_term)

(* One exit-code contract for every subcommand: a usage problem (unknown
   flag, unknown subcommand, bad argument value — cmdliner prints the
   subcommand's usage to stderr) exits 2; a command that ran and found
   violations prints the reason to stderr via [fail_run] and exits 1, as
   does one whose sweep lost a job (see [sweep]); clean runs, --help and
   --version exit 0.  Each term evaluates to its
   exit code, so violations are not routed through cmdliner's error
   machinery (which cannot be told apart from a parse error). *)
let () =
  let info =
    Cmd.info "ft" ~version:"1.0"
      ~doc:"Failure transparency and the limits of generic recovery"
  in
  let group =
    Cmd.group info
      [ space_cmd; figure8_cmd; table1_cmd; table2_cmd; analysis_cmd;
        ablation_cmd; torture_cmd; netstorm_cmd; mc_cmd; serve_cmd;
        rescue_cmd; run_cmd; disasm_cmd; all_cmd ]
  in
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error `Exn -> Cmd.Exit.internal_error
    | Error (`Parse | `Term) -> 2)
