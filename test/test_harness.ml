(* Tests for the experiment harness: Figure 8 measurements respect the
   paper's orderings, the Table 1/2 campaigns produce sane rows, the
   composed analyses match the paper's arithmetic, and the report
   renderer is well-formed. *)

let find name cells =
  List.find (fun c -> c.Ft_harness.Figure8.protocol = name) cells

let test_figure8_nvi_shape () =
  let r = Ft_harness.Figure8.measure ~scale:0.15 Ft_harness.Figure8.Nvi in
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
  let r =
    Ft_harness.Figure8.measure ~scale:0.2 Ft_harness.Figure8.Treadmarks
  in
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
  let r = Ft_harness.Figure8.measure ~scale:0.1 Ft_harness.Figure8.Xpilot in
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
      ~app:Ft_harness.Table1.Postgres Ft_faults.Fault_type.Stack_bit_flip
  in
  Alcotest.(check bool) "collected crashes" true
    (row.Ft_harness.Table1.crashes > 0);
  Alcotest.(check bool) "violations <= crashes" true
    (row.Ft_harness.Table1.violations <= row.Ft_harness.Table1.crashes)

let test_table2_mini_campaign () =
  let rows =
    Ft_harness.Table2.run ~target_crashes:3 ~max_attempts:30
      ~app:Ft_harness.Table1.Postgres ()
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

let test_torture_all_points_clean () =
  let rep =
    Ft_harness.Torture.run ~quiet:true ~points:Ft_harness.Torture.All
      small_scenario
  in
  Alcotest.(check bool) "commit has crash points" true
    (rep.Ft_harness.Torture.total_writes > 0);
  Alcotest.(check int) "every point explored"
    rep.Ft_harness.Torture.requested rep.Ft_harness.Torture.explored;
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
    Ft_harness.Torture.run ~quiet:true
      ~defect:Ft_stablemem.Vista.Publish_header_first
      ~points:Ft_harness.Torture.All small_scenario
  in
  Alcotest.(check bool) "defect caught" true
    (List.length rep.Ft_harness.Torture.violations > 0)

let test_torture_sample_reproducible () =
  let run () =
    Ft_harness.Torture.run ~quiet:true
      ~points:(Ft_harness.Torture.Sample 12) small_scenario
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same explored" a.Ft_harness.Torture.explored
    b.Ft_harness.Torture.explored;
  Alcotest.(check int) "sample of the requested size" 12
    a.Ft_harness.Torture.requested;
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

let test_serve_tiny_fleet_clean () =
  let report = Ft_harness.Serve.run ~quiet:true tiny_serve_params in
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

(* BENCH_RESULTS.json merging: a missing file starts with the schema
   key, an existing object keeps keys it does not share and takes the
   new values of those it does, and a file that is not an object is
   refused and left byte-identical. *)
let test_merge_bench () =
  let module J = Ft_exp.Jstore in
  let path = Filename.temp_file "ft_bench" ".json" in
  let read () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let read_obj () =
    match J.of_string (String.trim (read ())) with
    | Ok (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "bench file is not an object"
  in
  let merge kvs = Ft_harness.Report.merge_bench ~path kvs in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sys.remove path;
      Alcotest.(check bool) "missing file merges" true
        (merge [ ("a", J.Int 1) ] = Ok ());
      Alcotest.(check bool) "missing file: schema + new keys" true
        (read_obj () = [ ("schema", J.String "ft-bench/1"); ("a", J.Int 1) ]);
      Alcotest.(check bool) "object merges" true
        (merge [ ("a", J.Int 2); ("b", J.Int 3) ] = Ok ());
      let kvs = read_obj () in
      Alcotest.(check bool) "other key kept" true
        (List.assoc_opt "schema" kvs = Some (J.String "ft-bench/1"));
      Alcotest.(check bool) "shared key overwritten" true
        (List.assoc_opt "a" kvs = Some (J.Int 2));
      Alcotest.(check bool) "new key added" true
        (List.assoc_opt "b" kvs = Some (J.Int 3));
      List.iter
        (fun bad ->
          let oc = open_out_bin path in
          output_string oc bad;
          close_out oc;
          Alcotest.(check bool) (bad ^ " refused") true
            (Result.is_error (merge [ ("a", J.Int 4) ]));
          Alcotest.(check string) (bad ^ " untouched") bad (read ()))
        [ "[1]\n"; "not json"; "" ])

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
           Ft_harness.Figure8.render
             (Ft_harness.Figure8.measure ~scale:0.25 ~seed:42 app))
         Ft_harness.Figure8.all_apps)
  in
  Alcotest.(check string)
    "figure 8 rendering is byte-identical (scale 0.25, seed 42)"
    (read_golden "figure8_scale025.golden")
    actual

let test_figure8_classic_golden () =
  (* The original 7-protocol panels must stay byte-identical even though
     the default protocol space now includes the message-logging pair:
     [~classic:true] reproduces exactly the pre-extension bytes. *)
  let actual =
    String.concat ""
      (List.map
         (fun app ->
           Ft_harness.Figure8.render
             (Ft_harness.Figure8.measure ~classic:true ~scale:0.25 ~seed:42
                app))
         Ft_harness.Figure8.all_apps)
  in
  Alcotest.(check string)
    "classic 7-protocol rendering is byte-identical (scale 0.25, seed 42)"
    (read_golden "figure8_scale025_classic.golden")
    actual

let test_table1_golden () =
  let actual =
    Ft_harness.Table1.render ~app:Ft_harness.Table1.Nvi
      (Ft_harness.Table1.run ~target_crashes:3 ~app:Ft_harness.Table1.Nvi ())
  in
  Alcotest.(check string)
    "table 1 rendering is byte-identical (nvi, 3 crashes per fault)"
    (read_golden "table1_nvi_crashes3.golden")
    actual

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
  let report = Ft_harness.Serve.run ~quiet:true params in
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
  let report = Ft_harness.Rescue.run ~quiet:true spec in
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
    Alcotest.test_case "figure8 classic golden rendering" `Quick
      test_figure8_classic_golden;
    Alcotest.test_case "table1 golden rendering" `Quick test_table1_golden;
    Alcotest.test_case "serve quarantines poisoned tenant" `Slow
      test_serve_quarantines_poisoned_tenant;
    Alcotest.test_case "rescue tiny campaign" `Slow test_rescue_tiny_campaign;
    Alcotest.test_case "merge bench results" `Quick test_merge_bench;
  ]

let () = Alcotest.run "ft_harness" [ ("harness", tests) ]
