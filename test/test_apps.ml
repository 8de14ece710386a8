(* Tests for the five workload applications: each must run to completion,
   produce deterministic visible output given its input script, uphold
   Save-work under its protocol, and (for the uniprocess apps) recover
   consistently from injected stop failures. *)

let run ?(protocol = Ft_core.Protocols.cpvs) ?(kills = [])
    ?(medium = Ft_runtime.Checkpointer.Reliable_memory) ?(seed = 42)
    (w : Ft_apps.Workload.t) =
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with protocol; kills; medium }
  in
  let kernel = Ft_apps.Workload.kernel ~seed w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  r

let check_completed name (r : Ft_runtime.Engine.result) =
  Alcotest.(check bool)
    (name ^ " completes")
    true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed)

(* --- nvi ---------------------------------------------------------------- *)

let nvi () = Ft_apps.Nvi.workload ~params:Ft_apps.Nvi.small_params ()

let test_nvi_runs () =
  let r = run (nvi ()) in
  check_completed "nvi" r;
  Alcotest.(check int) "one visible per keystroke plus goodbye"
    (Ft_apps.Nvi.small_params.Ft_apps.Nvi.keystrokes + 1)
    (List.length r.Ft_runtime.Engine.visible)

let test_nvi_deterministic () =
  let a = run (nvi ()) and b = run (nvi ()) in
  Alcotest.(check (list int)) "same script, same screens"
    a.Ft_runtime.Engine.visible b.Ft_runtime.Engine.visible

let test_nvi_save_work () =
  let r = run (nvi ()) in
  Alcotest.(check bool) "save-work holds" true
    (Ft_core.Save_work.holds r.Ft_runtime.Engine.trace)

let test_nvi_stop_failure () =
  let reference = (run (nvi ())).Ft_runtime.Engine.visible in
  let r = run ~kills:[ (50_000_000, 0); (150_000_000, 0) ] (nvi ()) in
  check_completed "nvi with kills" r;
  Alcotest.(check bool) "consistent recovery" true
    (Ft_core.Consistency.is_consistent ~reference
       ~observed:r.Ft_runtime.Engine.visible)

let test_nvi_signals_unloggable () =
  (* CAND-LOG must still commit for nvi's timer signals, and only for
     them: the commit count equals the signal count. *)
  let r = run ~protocol:Ft_core.Protocols.cand_log (nvi ()) in
  check_completed "nvi cand-log" r;
  let commits = r.Ft_runtime.Engine.commit_counts.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "few but nonzero commits (got %d)" commits)
    true
    (commits > 0 && commits < 20)

let test_nvi_saves_file () =
  let r = run (nvi ()) in
  let kernel = Ft_apps.Workload.kernel (nvi ()) in
  ignore kernel;
  (* the :w command appears in the script, so the editor reports >= 0
     saves; the run's trace must contain fixed-ND file writes *)
  let has_fixed_nd =
    List.exists
      (fun e ->
        match e.Ft_core.Event.kind with
        | Ft_core.Event.Nd Ft_core.Event.Fixed -> true
        | _ -> false)
      (Ft_core.Trace.events r.Ft_runtime.Engine.trace)
  in
  Alcotest.(check bool) "fixed ND events from :w" true has_fixed_nd

(* --- postgres ----------------------------------------------------------- *)

let postgres () =
  Ft_apps.Postgres.workload ~params:Ft_apps.Postgres.small_params ()

let test_postgres_runs () =
  let r = run (postgres ()) in
  check_completed "postgres" r;
  Alcotest.(check bool) "selects produced output" true
    (List.length r.Ft_runtime.Engine.visible > 10)

let test_postgres_deterministic () =
  let a = run (postgres ()) and b = run (postgres ()) in
  Alcotest.(check (list int)) "same queries, same results"
    a.Ft_runtime.Engine.visible b.Ft_runtime.Engine.visible

let test_postgres_stop_failure () =
  let reference = (run (postgres ())).Ft_runtime.Engine.visible in
  let r = run ~kills:[ (20_000_000, 0) ] (postgres ()) in
  check_completed "postgres with kill" r;
  Alcotest.(check bool) "consistent recovery" true
    (Ft_core.Consistency.is_consistent ~reference
       ~observed:r.Ft_runtime.Engine.visible)

let test_postgres_wal_grows () =
  let w = postgres () in
  let cfg = Ft_apps.Workload.engine_config w Ft_runtime.Engine.default_config in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  check_completed "postgres" r;
  Alcotest.(check bool) "WAL got appended" true
    (Ft_os.Kernel.file_length kernel 0 Ft_apps.Postgres.wal_file > 10)

(* --- magic -------------------------------------------------------------- *)

let magic () = Ft_apps.Magic.workload ~params:Ft_apps.Magic.small_params ()

let test_magic_runs () =
  let r = run (magic ()) in
  check_completed "magic" r;
  Alcotest.(check int) "a status line per command plus summary"
    (Ft_apps.Magic.small_params.Ft_apps.Magic.commands + 1)
    (List.length r.Ft_runtime.Engine.visible)

let test_magic_unloggable_nd_dominates () =
  (* magic brackets every command with gettimeofday: CAND-LOG must still
     commit at least twice per command. *)
  let r = run ~protocol:Ft_core.Protocols.cand_log (magic ()) in
  check_completed "magic cand-log" r;
  Alcotest.(check bool) "commits ~2 per command" true
    (r.Ft_runtime.Engine.commit_counts.(0)
     >= 2 * Ft_apps.Magic.small_params.Ft_apps.Magic.commands)

let test_magic_stop_failure () =
  let reference = (run (magic ())).Ft_runtime.Engine.visible in
  let r = run ~kills:[ (100_000_000, 0) ] (magic ()) in
  check_completed "magic with kill" r;
  Alcotest.(check bool) "consistent recovery" true
    (Ft_core.Consistency.is_consistent ~reference
       ~observed:r.Ft_runtime.Engine.visible)

(* --- xpilot ------------------------------------------------------------- *)

let xpilot () = Ft_apps.Xpilot.workload ~params:Ft_apps.Xpilot.small_params ()

let test_xpilot_runs () =
  let r = run (xpilot ()) in
  check_completed "xpilot" r;
  (* three clients render every frame *)
  Alcotest.(check int) "frames rendered"
    (3 * Ft_apps.Xpilot.small_params.Ft_apps.Xpilot.frames)
    (List.length r.Ft_runtime.Engine.visible)

let test_xpilot_full_speed_on_dc () =
  let r = run (xpilot ()) in
  let fps = Ft_apps.Xpilot.fps r in
  Alcotest.(check bool)
    (Printf.sprintf "near 15 fps on reliable memory (got %.1f)" fps)
    true (fps > 13.0)

let test_xpilot_degrades_on_disk () =
  (* Under CAND the server commits dozens of times per frame: reliable
     memory absorbs it, a synchronous disk cannot hold 15 fps. *)
  let dc = Ft_apps.Xpilot.fps (run ~protocol:Ft_core.Protocols.cand (xpilot ())) in
  let disk =
    Ft_apps.Xpilot.fps
      (run ~protocol:Ft_core.Protocols.cand
         ~medium:(Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default)
         (xpilot ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "disk much slower (dc %.1f, disk %.1f)" dc disk)
    true
    (disk < dc /. 2.)

(* --- treadmarks --------------------------------------------------------- *)

let treadmarks () =
  Ft_apps.Treadmarks.workload ~params:Ft_apps.Treadmarks.small_params ()

let test_treadmarks_runs () =
  let r = run (treadmarks ()) in
  check_completed "treadmarks" r;
  Alcotest.(check int) "progress line per iteration plus checksum"
    (Ft_apps.Treadmarks.small_params.Ft_apps.Treadmarks.iters + 1)
    (List.length r.Ft_runtime.Engine.visible)

let test_treadmarks_deterministic () =
  (* Lazy release consistency makes the computation independent of
     message timing: different kernel seeds, same answers. *)
  let a = run ~seed:1 (treadmarks ()) and b = run ~seed:99 (treadmarks ()) in
  Alcotest.(check (list int)) "timing-independent results"
    a.Ft_runtime.Engine.visible b.Ft_runtime.Engine.visible

let test_treadmarks_nd_profile () =
  (* Copious receive ND plus unloggable timer ND: CAND >> CPVS and
     CAND > CAND-LOG > CBNDVS-LOG. *)
  let commits p =
    let r = run ~protocol:p (treadmarks ()) in
    check_completed "treadmarks" r;
    Array.fold_left ( + ) 0 r.Ft_runtime.Engine.commit_counts
  in
  let cand = commits Ft_core.Protocols.cand in
  let cand_log = commits Ft_core.Protocols.cand_log in
  let cpvs = commits Ft_core.Protocols.cpvs in
  let c2pc = commits Ft_core.Protocols.cpv_2pc in
  Alcotest.(check bool)
    (Printf.sprintf "cand %d > cand_log %d" cand cand_log)
    true (cand > cand_log);
  Alcotest.(check bool)
    (Printf.sprintf "cand %d > cpvs %d" cand cpvs)
    true (cand > cpvs);
  Alcotest.(check bool)
    (Printf.sprintf "2pc %d tiny vs cpvs %d" c2pc cpvs)
    true (c2pc * 10 < cpvs)

let test_treadmarks_stop_failure () =
  let reference = (run (treadmarks ())).Ft_runtime.Engine.visible in
  let r = run ~kills:[ (10_000_000, 2) ] (treadmarks ()) in
  check_completed "treadmarks with worker kill" r;
  Alcotest.(check bool) "consistent recovery" true
    (Ft_core.Consistency.is_consistent ~reference
       ~observed:r.Ft_runtime.Engine.visible)

(* --- compiled code ------------------------------------------------------- *)

(* One MD5 per pid of each workload's disassembled code: at every app's
   default and small parameters and at the Figure 8 scale the goldens use.
   A source edit that means to keep the measured workloads as they are
   must keep every line of test/golden/workload_code.golden. *)
let workload_code () =
  let module A = Ft_apps in
  let line name (w : A.Workload.t) =
    String.concat ""
      (Array.to_list
         (Array.mapi
            (fun pid code ->
              Printf.sprintf "%s pid %d %s\n" name pid
                (Digest.to_hex
                   (Digest.string (Ft_vm.Asm.disassemble code))))
            w.A.Workload.programs))
  in
  let at label d s w =
    [ line (label ^ " default") (w d); line (label ^ " small") (w s) ]
  in
  String.concat ""
    (List.concat
       [
         at "nvi" A.Nvi.default_params A.Nvi.small_params (fun params ->
             A.Nvi.workload ~params ());
         at "postgres" A.Postgres.default_params A.Postgres.small_params
           (fun params -> A.Postgres.workload ~params ());
         at "magic" A.Magic.default_params A.Magic.small_params (fun params ->
             A.Magic.workload ~params ());
         at "xpilot" A.Xpilot.default_params A.Xpilot.small_params
           (fun params -> A.Xpilot.workload ~params ());
         at "treadmarks" A.Treadmarks.default_params A.Treadmarks.small_params
           (fun params -> A.Treadmarks.workload ~params ());
         List.map
           (fun app ->
             line
               ("figure8 " ^ Ft_harness.Figure8.app_name app ^ " scale 0.25")
               (Ft_harness.Figure8.workload ~scale:0.25 app))
           Ft_harness.Figure8.all_apps;
       ])

(* Resolves from the dune test sandbox (cwd = test/) and from a repo-root
   `dune exec test/test_apps.exe` alike. *)
let read_golden name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

let test_workload_code_golden () =
  Alcotest.(check string)
    "compiled code of every workload is byte-identical"
    (read_golden "workload_code.golden")
    (workload_code ())

let tests =
  [
    Alcotest.test_case "nvi runs" `Quick test_nvi_runs;
    Alcotest.test_case "nvi deterministic" `Quick test_nvi_deterministic;
    Alcotest.test_case "nvi save-work" `Quick test_nvi_save_work;
    Alcotest.test_case "nvi stop failure" `Quick test_nvi_stop_failure;
    Alcotest.test_case "nvi signals unloggable" `Quick
      test_nvi_signals_unloggable;
    Alcotest.test_case "nvi saves file" `Quick test_nvi_saves_file;
    Alcotest.test_case "postgres runs" `Quick test_postgres_runs;
    Alcotest.test_case "postgres deterministic" `Quick
      test_postgres_deterministic;
    Alcotest.test_case "postgres stop failure" `Quick
      test_postgres_stop_failure;
    Alcotest.test_case "postgres wal grows" `Quick test_postgres_wal_grows;
    Alcotest.test_case "magic runs" `Quick test_magic_runs;
    Alcotest.test_case "magic unloggable nd" `Quick
      test_magic_unloggable_nd_dominates;
    Alcotest.test_case "magic stop failure" `Quick test_magic_stop_failure;
    Alcotest.test_case "xpilot runs" `Quick test_xpilot_runs;
    Alcotest.test_case "xpilot full speed on dc" `Quick
      test_xpilot_full_speed_on_dc;
    Alcotest.test_case "xpilot degrades on disk" `Quick
      test_xpilot_degrades_on_disk;
    Alcotest.test_case "treadmarks runs" `Quick test_treadmarks_runs;
    Alcotest.test_case "treadmarks deterministic" `Quick
      test_treadmarks_deterministic;
    Alcotest.test_case "treadmarks nd profile" `Quick
      test_treadmarks_nd_profile;
    Alcotest.test_case "treadmarks stop failure" `Quick
      test_treadmarks_stop_failure;
    Alcotest.test_case "workload code golden" `Quick test_workload_code_golden;
  ]

let () = Alcotest.run "ft_apps" [ ("apps", tests) ]
