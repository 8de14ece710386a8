(* Tests for the experiment harness: Figure 8 measurements respect the
   paper's orderings, the Table 1/2 campaigns produce sane rows, the
   composed analyses match the paper's arithmetic, and the report
   renderer is well-formed. *)

let find name cells =
  List.find (fun c -> c.Ft_harness.Figure8.protocol = name) cells

(* Campaigns are jobs plus [of_records]; the tests sweep them serially
   in memory, and a job that dies fails the test as it fails the CLI. *)
let in_memory jobs =
  let sr = Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~name:"test" jobs in
  Alcotest.(check (list (pair string string)))
    "no sweep job died" [] (Ft_exp.Exp.failures sr);
  Ft_exp.Exp.lookup sr

let figure8 ?seed ~scale app =
  Ft_harness.Figure8.of_records ~scale ?seed app
    (in_memory (Ft_harness.Figure8.jobs ~scale ?seed app))

let table1 ~target_crashes ~app =
  Ft_harness.Table1.of_records ~target_crashes ~app
    (in_memory (Ft_harness.Table1.jobs ~target_crashes ~app ()))

let table2 ?max_attempts ~target_crashes ~app () =
  Ft_harness.Table2.of_records ?max_attempts ~target_crashes ~app
    (in_memory (Ft_harness.Table2.jobs ?max_attempts ~target_crashes ~app ()))

let test_figure8_nvi_shape () =
  let r = figure8 ~scale:0.15 Ft_harness.Figure8.Nvi in
  let cells = r.Ft_harness.Figure8.cells in
  let cand = find "CAND" cells
  and cand_log = find "CAND-LOG" cells
  and cpvs = find "CPVS" cells in
  (* nvi: nearly all ND is loggable input, so CAND-LOG commits almost
     never while CAND commits per keystroke *)
  Alcotest.(check bool) "cand >> cand-log" true
    (cand.Ft_harness.Figure8.checkpoints
    > 10 * max 1 cand_log.Ft_harness.Figure8.checkpoints);
  Alcotest.(check bool) "cpvs ~ cand" true
    (abs (cpvs.Ft_harness.Figure8.checkpoints
          - cand.Ft_harness.Figure8.checkpoints)
    < cand.Ft_harness.Figure8.checkpoints / 2);
  (* reliable-memory commits are nearly free next to 100 ms think time *)
  Alcotest.(check bool) "DC overhead small" true
    (cand.Ft_harness.Figure8.dc_overhead < 5.);
  Alcotest.(check bool) "disk costs more" true
    (cand.Ft_harness.Figure8.dcdisk_overhead
    > cand.Ft_harness.Figure8.dc_overhead)

let test_figure8_treadmarks_shape () =
  let r = figure8 ~scale:0.2 Ft_harness.Figure8.Treadmarks in
  let cells = r.Ft_harness.Figure8.cells in
  let cand = find "CAND" cells
  and cpvs = find "CPVS" cells
  and cpv2 = find "CPV-2PC" cells in
  Alcotest.(check bool) "cand > cpvs" true
    (cand.Ft_harness.Figure8.checkpoints > cpvs.Ft_harness.Figure8.checkpoints);
  Alcotest.(check bool) "2pc is the big win" true
    (cpv2.Ft_harness.Figure8.checkpoints * 10
    < cpvs.Ft_harness.Figure8.checkpoints);
  Alcotest.(check bool) "2pc lowest overhead" true
    (cpv2.Ft_harness.Figure8.dc_overhead
    <= cpvs.Ft_harness.Figure8.dc_overhead)

let test_figure8_xpilot_full_speed () =
  let r = figure8 ~scale:0.1 Ft_harness.Figure8.Xpilot in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Ft_harness.Figure8.protocol ^ " full speed on DC")
        true
        (c.Ft_harness.Figure8.dc_fps > 13.))
    r.Ft_harness.Figure8.cells

let test_table1_mini_campaign () =
  let row =
    Ft_harness.Table1.campaign ~target_crashes:4 ~max_attempts:120
      ~mk_workload:(fun () ->
        Ft_harness.Table1.workload Ft_harness.Table1.Postgres)
      Ft_faults.Fault_type.Stack_bit_flip
  in
  Alcotest.(check bool) "collected crashes" true
    (row.Ft_harness.Table1.crashes > 0);
  Alcotest.(check bool) "violations <= crashes" true
    (row.Ft_harness.Table1.violations <= row.Ft_harness.Table1.crashes)

let test_table2_mini_campaign () =
  let rows =
    table2 ~target_crashes:3 ~max_attempts:30 ~app:Ft_harness.Table1.Postgres
      ()
  in
  Alcotest.(check int) "one row per fault type"
    (List.length Ft_faults.Fault_type.all)
    (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "failed <= crashes" true
        (r.Ft_harness.Table2.failed_recoveries <= r.Ft_harness.Table2.crashes))
    rows

let test_analysis_arithmetic () =
  (* the paper's numbers: 35% violations, 15% Heisenbugs -> ~90% conflict *)
  let c =
    Ft_harness.Analysis.conflict ~heisenbug_fraction:0.15
      ~violation_rate:0.35 ()
  in
  Alcotest.(check bool) "~90% conflict" true
    (c.Ft_harness.Analysis.conflict_fraction > 0.89
    && c.Ft_harness.Analysis.conflict_fraction < 0.92);
  (* the paper's §4.2 inference: 15% failures / 37% violations ~ 41% *)
  let p =
    Ft_harness.Analysis.inferred_propagation ~os_failure_rate:0.15
      ~violation_rate:0.37
  in
  Alcotest.(check bool) "~41% propagation" true (p > 0.40 && p < 0.42)

let test_report_renderer () =
  let s =
    Ft_harness.Report.table
      ~headers:[ "a"; "bbbb"; "c" ]
      ~rows:[ [ "x"; "1"; "2" ]; [ "longer"; "33"; "444" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header, rule, rows" true
    (List.length lines >= 4);
  (* all non-empty lines align to the same width or less *)
  Alcotest.(check bool) "contains all cells" true
    (List.for_all
       (fun cell ->
         List.exists
           (fun line ->
             let re = cell in
             let rec contains i =
               i + String.length re <= String.length line
               && (String.sub line i (String.length re) = re
                  || contains (i + 1))
             in
             String.length line >= String.length re && contains 0)
           lines)
       [ "longer"; "444"; "bbbb" ])

let test_protocol_space_render () =
  let s = Ft_core.Protocol_space.render Ft_core.Protocol_space.all in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " plotted") true
        (let rec contains i =
           i + String.length name <= String.length s
           && (String.sub s i (String.length name) = name || contains (i + 1))
         in
         contains 0))
    [ "CAND"; "CPVS"; "Hypervisor"; "Manetho" ]

(* --- crash-point torture -------------------------------------------------- *)

(* Small enough to explore every crash point in-test. *)
let small_scenario =
  { Ft_harness.Torture.default_scenario with
    heap_words = 256;
    dirty_pages = 2;
    stack_depth = 8 }

let torture ?defect ~points sc =
  let total_writes, post = Ft_harness.Torture.measure ?defect sc in
  Ft_harness.Torture.of_records ?defect ~points ~total_writes sc
    (in_memory (Ft_harness.Torture.jobs ?defect ~points ~total_writes ~post sc))

let test_torture_all_points_clean () =
  let rep = torture ~points:Ft_harness.Torture.All small_scenario in
  Alcotest.(check bool) "commit has crash points" true
    (rep.Ft_harness.Torture.total_writes > 0);
  Alcotest.(check int) "every point explored"
    (rep.Ft_harness.Torture.total_writes + 1)
    rep.Ft_harness.Torture.explored;
  Alcotest.(check int) "no violations" 0
    (List.length rep.Ft_harness.Torture.violations);
  (* only the no-crash endpoint commits; every interception rolls back *)
  Alcotest.(check int) "exactly one committed endpoint" 1
    rep.Ft_harness.Torture.committed;
  Alcotest.(check int) "the rest rolled back"
    (rep.Ft_harness.Torture.explored - 1)
    rep.Ft_harness.Torture.rolled_back

let test_torture_catches_defect () =
  (* Publishing the record header before its body makes a mid-record
     crash replay garbage before-images: the checker must see hybrids. *)
  let rep =
    torture ~defect:Ft_stablemem.Vista.Publish_header_first
      ~points:Ft_harness.Torture.All small_scenario
  in
  Alcotest.(check bool) "defect caught" true
    (List.length rep.Ft_harness.Torture.violations > 0)

let test_torture_sample_reproducible () =
  let run () =
    torture ~points:(Ft_harness.Torture.Sample 12) small_scenario
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same explored" a.Ft_harness.Torture.explored
    b.Ft_harness.Torture.explored;
  Alcotest.(check int) "sample of the requested size" 12
    a.Ft_harness.Torture.explored;
  Alcotest.(check int) "clean sample" 0
    (List.length a.Ft_harness.Torture.violations)

(* --- fleet serving campaign ----------------------------------------------- *)

(* A tiny fleet, kills on, all oracles armed: the campaign must come
   back clean with every request acknowledged exactly once. *)
let tiny_serve_params =
  { Ft_harness.Serve.smoke_params with
    procs = 6;
    requests = 600;
    shard_size = 2;
    seed = 3 }

let serve ?protocols p =
  Ft_harness.Serve.of_records ?protocols p
    (in_memory (Ft_harness.Serve.jobs ?protocols p))

let test_serve_tiny_fleet_clean () =
  let report = serve tiny_serve_params in
  Alcotest.(check bool) "oracles clean" true (Ft_harness.Serve.clean report);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Ft_harness.Serve.s_protocol ^ " all acked")
        s.Ft_harness.Serve.s_requests s.Ft_harness.Serve.s_acked;
      Alcotest.(check bool)
        (s.Ft_harness.Serve.s_protocol ^ " goodput positive")
        true
        (s.Ft_harness.Serve.s_goodput > 0.);
      Alcotest.(check bool)
        (s.Ft_harness.Serve.s_protocol ^ " percentiles ordered")
        true
        (s.Ft_harness.Serve.s_p50_ns <= s.Ft_harness.Serve.s_p99_ns
        && s.Ft_harness.Serve.s_p99_ns <= s.Ft_harness.Serve.s_p999_ns))
    report.Ft_harness.Serve.summaries

(* Shards are pure jobs: the sharded campaign renders byte-identically
   under -j1 and -j4. *)
let serve_rendered workers =
  let jobs = Ft_harness.Serve.jobs tiny_serve_params in
  let lookup =
    Ft_exp.Exp.lookup
      (Ft_exp.Exp.run_sweep ~workers ~quiet:true ~name:"serve" jobs)
  in
  Ft_harness.Serve.render
    (Ft_harness.Serve.of_records tiny_serve_params lookup)

let test_serve_parallel_equals_serial () =
  Alcotest.(check string)
    "serve -j1 == -j4" (serve_rendered 1) (serve_rendered 4)

(* Byte-identical pinning of the paper outputs: any change to simulated
   (charged) costs, protocol decisions, workload generation or RNG
   derivation shows up here as a diff against the committed golden
   rendering.  Pure wall-clock optimisations must keep these green. *)
(* Resolves from the dune test sandbox (cwd = test/) and from a repo-root
   `dune exec test/test_harness.exe` alike. *)
let read_golden name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_figure8_golden () =
  let actual =
    String.concat ""
      (List.map
         (fun app ->
           Ft_harness.Figure8.render (figure8 ~scale:0.25 ~seed:42 app))
         Ft_harness.Figure8.all_apps)
  in
  Alcotest.(check string)
    "figure 8 rendering is byte-identical (scale 0.25, seed 42)"
    (read_golden "figure8_scale025.golden")
    actual

let test_table1_golden () =
  List.iter
    (fun app ->
      let name = Ft_harness.Table1.app_name app in
      Alcotest.(check string)
        (Printf.sprintf
           "table 1 rendering is byte-identical (%s, 3 crashes per fault)" name)
        (read_golden (Printf.sprintf "table1_%s_crashes3.golden" name))
        (Ft_harness.Table1.render ~app (table1 ~target_crashes:3 ~app)))
    [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ]

let test_table2_golden () =
  List.iter
    (fun app ->
      let name = Ft_harness.Table1.app_name app in
      Alcotest.(check string)
        (Printf.sprintf
           "table 2 rendering is byte-identical (%s, 3 crashes per fault)" name)
        (read_golden (Printf.sprintf "table2_%s_crashes3.golden" name))
        (Ft_harness.Table2.render ~app (table2 ~target_crashes:3 ~app ())))
    [ Ft_harness.Table1.Nvi; Ft_harness.Table1.Postgres ]

(* 3 crashes in at most 200 attempts: the frequent cadences stop at the
   crash target, "never" runs out of attempts first. *)
let test_ablation_crash_early_golden () =
  let cadences = [ 1; 16; 1_000_000 ] in
  let actual =
    Ft_harness.Ablation.render_crash_early
      (Ft_harness.Ablation.crash_early_of_records ~cadences ~target_crashes:3
         ~max_attempts:200
         (in_memory
            (Ft_harness.Ablation.crash_early_jobs ~cadences ~target_crashes:3
               ~max_attempts:200 ())))
  in
  Alcotest.(check string)
    "crash-early rendering is byte-identical (3 crashes, 200 attempts)"
    (read_golden "ablation_crash_early_small.golden")
    actual

let rescue spec =
  Ft_harness.Rescue.of_records spec (in_memory (Ft_harness.Rescue.jobs spec))

let test_rescue_golden () =
  let spec =
    {
      Ft_harness.Rescue.apps = [ Ft_harness.Table1.Nvi ];
      protocols = [ Ft_core.Protocols.cpvs ];
      ladder_names = [ "generic"; "full" ];
      fault_types =
        [ Ft_faults.Fault_type.Stack_bit_flip; Ft_faults.Fault_type.Heap_bit_flip ];
      target_crashes = 2;
      max_attempts = 30;
      seed0 = 7000;
    }
  in
  Alcotest.(check string)
    "rescue rendering is byte-identical (nvi, CPVS, generic vs full)"
    (read_golden "rescue_mini.golden")
    (Ft_harness.Rescue.render (rescue spec))

(* The serve campaign's simulated units, at full precision: the smoke
   fleet at seed 11 plain, with one poisoned tenant, and with nested
   failures over CPVS and the logging pair, plus the `ft serve --smoke`
   fleet (seed 42).  Each section is the rendered report followed by one
   line per protocol summary. *)
let serve_golden_configs =
  let p = { Ft_harness.Serve.smoke_params with seed = 11 } in
  [
    ("plain", None, p);
    ("poison 1", None, { p with poison = 1 });
    ( "recovery-crash-rate 2.0",
      Some (Ft_core.Protocols.cpvs :: Ft_core.Protocols.message_logging),
      { p with recovery_crash_rate = 2.0 } );
    ("smoke seed 42", None, Ft_harness.Serve.smoke_params);
  ]

let serve_summary_line (s : Ft_harness.Serve.proto_summary) =
  Printf.sprintf
    "%s: p50_ns %d p99_ns %d p999_ns %d goodput %.17g mttr_ns %d \
     nested_crashes %d mttr_nested %d x %d ns det_high_water %d \
     det_forced_flushes %d quarantined %d crash_loop_events %d \
     work_per_minstr %.17g\n"
    s.s_protocol s.s_p50_ns s.s_p99_ns s.s_p999_ns s.s_goodput
    s.s_mttr_mean_ns s.s_nested_crashes s.s_mttr_nested_count
    s.s_mttr_nested_mean_ns s.s_det_high_water s.s_det_forced_flushes
    s.s_quarantined s.s_crash_loop_events s.s_work_per_minstr

let test_serve_golden () =
  let actual =
    String.concat ""
      (List.map
         (fun (name, protocols, p) ->
           let r = serve ?protocols p in
           Printf.sprintf "## %s\n" name
           ^ Ft_harness.Serve.render r
           ^ String.concat ""
               (List.map serve_summary_line r.Ft_harness.Serve.summaries))
         serve_golden_configs)
  in
  Alcotest.(check string)
    "serve reports and summaries are byte-identical (smoke fleet)"
    (read_golden "serve_smoke.golden")
    actual

(* The campaign trial loop: consecutive seeds from [seed0], stopping at
   the crash target or at the attempt cap, whichever comes first. *)
let test_table1_trials () =
  let odd_crashes ~target_crashes ~max_attempts =
    Ft_harness.Table1.trials ~target_crashes ~max_attempts ~seed0:10
      ~crashed:(fun seed -> seed mod 2 = 1)
      Fun.id
  in
  Alcotest.(check (list int)) "stops at the crash target" [ 10; 11; 12; 13 ]
    (odd_crashes ~target_crashes:2 ~max_attempts:100);
  Alcotest.(check (list int)) "stops at the attempt cap" [ 10; 11; 12 ]
    (odd_crashes ~target_crashes:5 ~max_attempts:3);
  Alcotest.(check (list int)) "zero target runs nothing" []
    (odd_crashes ~target_crashes:0 ~max_attempts:3)

(* --- quarantine in the fleet (ladder rung L3) ------------------------------ *)

(* One tenant carries a deterministic Bohrbug (wild jump): generic
   recovery can never get it through, so the crash-loop breaker must
   park it — while every healthy tenant's requests are still served and
   the oracles stay clean. *)
let test_serve_quarantines_poisoned_tenant () =
  let params =
    { Ft_harness.Serve.smoke_params with
      procs = 4;
      requests = 400;
      shard_size = 4;
      crash_rate = 0.;
      seed = 5;
      poison = 1 }
  in
  let report = serve params in
  Alcotest.(check bool) "oracles clean" true (Ft_harness.Serve.clean report);
  List.iter
    (fun s ->
      let name = s.Ft_harness.Serve.s_protocol in
      Alcotest.(check bool) (name ^ " looper quarantined") true
        (s.Ft_harness.Serve.s_quarantined >= 1);
      Alcotest.(check bool) (name ^ " breaker tripped") true
        (s.Ft_harness.Serve.s_crash_loop_events >= 1);
      (* healthy tenants (3 of 4) keep serving: at least their share *)
      Alcotest.(check bool) (name ^ " healthy tenants acked") true
        (s.Ft_harness.Serve.s_acked >= 300))
    report.Ft_harness.Serve.summaries

(* --- rescue campaign ------------------------------------------------------- *)

(* A micro rescue sweep: paired fault draws per ladder (the cell seed
   excludes the ladder, so "generic" and "full" meet identical fault
   samples), zero machinery violations, and the renderer mentions the
   verdict. *)
let test_rescue_tiny_campaign () =
  let spec =
    {
      Ft_harness.Rescue.apps = [ Ft_harness.Table1.Nvi ];
      protocols = [ Ft_core.Protocols.cpvs ];
      ladder_names = [ "generic"; "full" ];
      fault_types =
        [ Ft_faults.Fault_type.Stack_bit_flip; Ft_faults.Fault_type.Delete_branch ];
      target_crashes = 2;
      max_attempts = 20;
      seed0 = 7000;
    }
  in
  let report = rescue spec in
  Alcotest.(check bool) "campaign clean" true (Ft_harness.Rescue.clean report);
  Alcotest.(check int) "all cells ran" 4
    (List.length report.Ft_harness.Rescue.rows);
  (* paired sampling: per fault type, both ladders saw the same trials
     and the same crashed-run count *)
  List.iter
    (fun ft ->
      let cells =
        List.filter
          (fun r -> r.Ft_harness.Rescue.fault_type = ft)
          report.Ft_harness.Rescue.rows
      in
      match cells with
      | [ a; b ] ->
          Alcotest.(check int) "paired trials" a.Ft_harness.Rescue.trials
            b.Ft_harness.Rescue.trials;
          Alcotest.(check int) "paired crashes" a.Ft_harness.Rescue.crashes
            b.Ft_harness.Rescue.crashes
      | _ -> Alcotest.fail "expected one cell per ladder")
    spec.Ft_harness.Rescue.fault_types;
  let rendered = Ft_harness.Rescue.render report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render shows the verdict" true
    (contains rendered "Consistency clean")

let tests =
  [
    Alcotest.test_case "figure8 nvi shape" `Slow test_figure8_nvi_shape;
    Alcotest.test_case "figure8 treadmarks shape" `Slow
      test_figure8_treadmarks_shape;
    Alcotest.test_case "figure8 xpilot full speed" `Slow
      test_figure8_xpilot_full_speed;
    Alcotest.test_case "table1 mini campaign" `Slow test_table1_mini_campaign;
    Alcotest.test_case "table2 mini campaign" `Slow test_table2_mini_campaign;
    Alcotest.test_case "analysis arithmetic" `Quick test_analysis_arithmetic;
    Alcotest.test_case "report renderer" `Quick test_report_renderer;
    Alcotest.test_case "protocol space render" `Quick
      test_protocol_space_render;
    Alcotest.test_case "torture all points clean" `Slow
      test_torture_all_points_clean;
    Alcotest.test_case "torture catches ordering defect" `Slow
      test_torture_catches_defect;
    Alcotest.test_case "torture sample reproducible" `Quick
      test_torture_sample_reproducible;
    Alcotest.test_case "serve tiny fleet clean" `Slow
      test_serve_tiny_fleet_clean;
    Alcotest.test_case "serve parallel == serial" `Slow
      test_serve_parallel_equals_serial;
    Alcotest.test_case "figure8 golden rendering" `Quick test_figure8_golden;
    Alcotest.test_case "table1 golden rendering" `Quick test_table1_golden;
    Alcotest.test_case "table2 golden rendering" `Quick test_table2_golden;
    Alcotest.test_case "ablation crash-early golden rendering" `Quick
      test_ablation_crash_early_golden;
    Alcotest.test_case "rescue golden rendering" `Quick test_rescue_golden;
    Alcotest.test_case "serve golden summaries" `Quick test_serve_golden;
    Alcotest.test_case "table1 trial loop" `Quick test_table1_trials;
    Alcotest.test_case "serve quarantines poisoned tenant" `Slow
      test_serve_quarantines_poisoned_tenant;
    Alcotest.test_case "rescue tiny campaign" `Slow test_rescue_tiny_campaign;
  ]

let () = Alcotest.run "ft_harness" [ ("harness", tests) ]
