(* Tests for the experiment runner: the pool runs every job exactly
   once and keeps input order, failures are contained, the JSONL store
   round-trips and resumes, and parallel sweeps render the paper's
   tables byte-identically to serial ones. *)

let mk_temp_dir () =
  let base = Filename.temp_file "ft_exp_test" "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* --- pool ----------------------------------------------------------------- *)

let test_pool_runs_each_job_once () =
  let n = 24 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let jobs =
    List.init n (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            Atomic.incr counts.(i);
            Ft_exp.Jstore.Int (i * i)))
  in
  let results = Ft_exp.Pool.run ~workers:4 jobs in
  Alcotest.(check int) "all results" n (List.length results);
  List.iteri
    (fun i (j, outcome, _) ->
      Alcotest.(check string)
        "input order preserved"
        (Printf.sprintf "job/%d" i)
        j.Ft_exp.Job.key;
      match outcome with
      | Ft_exp.Pool.Done (Ft_exp.Jstore.Int v) ->
          Alcotest.(check int) "job value" (i * i) v
      | _ -> Alcotest.fail "job did not complete")
    results;
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "job %d ran exactly once" i)
        1 (Atomic.get c))
    counts

let test_pool_contains_failures () =
  let jobs =
    List.init 8 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            if i = 3 then failwith "injected job failure";
            Ft_exp.Jstore.Int i))
  in
  let results = Ft_exp.Pool.run ~workers:4 jobs in
  List.iteri
    (fun i (_, outcome, _) ->
      match (i, outcome) with
      | 3, Ft_exp.Pool.Failed { error; attempts } ->
          Alcotest.(check int) "retried before failing" 2 attempts;
          Alcotest.(check bool) "error preserved" true
            (String.length error > 0)
      | 3, Ft_exp.Pool.Done _ -> Alcotest.fail "raising job reported Done"
      | _, Ft_exp.Pool.Done (Ft_exp.Jstore.Int v) ->
          Alcotest.(check int) "other jobs unpoisoned" i v
      | _, _ -> Alcotest.fail "healthy job failed")
    results

let test_pool_survives_raising_progress_callback () =
  (* A monitoring callback that itself raises must not kill worker
     domains (it runs inside their bookkeeping, under the pool mutex):
     every job still completes and the sweep returns. *)
  let calls = Atomic.make 0 in
  let jobs =
    List.init 12 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            if i mod 5 = 2 then failwith "injected";
            Ft_exp.Jstore.Int i))
  in
  let on_progress _ =
    Atomic.incr calls;
    failwith "progress callback bug"
  in
  let results = Ft_exp.Pool.run ~workers:4 ~on_progress jobs in
  Alcotest.(check int) "all slots filled" 12 (List.length results);
  Alcotest.(check bool) "callback was exercised" true (Atomic.get calls > 0);
  List.iteri
    (fun i (_, outcome, _) ->
      match outcome with
      | Ft_exp.Pool.Done (Ft_exp.Jstore.Int v) ->
          Alcotest.(check int) "value intact" i v
      | Ft_exp.Pool.Done _ -> Alcotest.fail "wrong payload"
      | Ft_exp.Pool.Failed _ ->
          Alcotest.(check int) "only injected jobs fail" 2 (i mod 5))
    results

let test_pool_surfaces_failed_count () =
  (* The failed counter rides every progress snapshot, so a sweep's
     monitor can report "3 cells failed" without scanning results. *)
  let last = Atomic.make (-1) in
  let jobs =
    List.init 10 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            if i < 3 then failwith "injected";
            Ft_exp.Jstore.Int i))
  in
  let on_progress (p : Ft_exp.Pool.progress) =
    if p.Ft_exp.Pool.finished = p.Ft_exp.Pool.total then
      Atomic.set last p.Ft_exp.Pool.failed
  in
  let results = Ft_exp.Pool.run ~workers:3 ~on_progress jobs in
  let failed =
    List.length
      (List.filter
         (fun (_, o, _) ->
           match o with Ft_exp.Pool.Failed _ -> true | _ -> false)
         results)
  in
  Alcotest.(check int) "three jobs failed" 3 failed;
  Alcotest.(check int) "final snapshot agrees" 3 (Atomic.get last)

let test_pool_retry_recovers () =
  (* fails on the first attempt, succeeds on the retry *)
  let tries = Atomic.make 0 in
  let jobs =
    [
      Ft_exp.Job.make ~key:"flaky" ~seed:0 (fun () ->
          if Atomic.fetch_and_add tries 1 = 0 then failwith "first attempt";
          Ft_exp.Jstore.Bool true);
    ]
  in
  match Ft_exp.Pool.run ~workers:1 jobs with
  | [ (_, Ft_exp.Pool.Done (Ft_exp.Jstore.Bool true), _) ] -> ()
  | _ -> Alcotest.fail "retry did not recover the job"

(* --- jstore --------------------------------------------------------------- *)

let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                return Ft_exp.Jstore.Null;
                map (fun b -> Ft_exp.Jstore.Bool b) bool;
                map (fun i -> Ft_exp.Jstore.Int i) int;
                map
                  (fun f -> Ft_exp.Jstore.Float f)
                  (oneof [ float; return 0.; return (-1.5e300); return 1e-7 ]);
                map (fun s -> Ft_exp.Jstore.String s) string;
              ]
          in
          if n <= 0 then leaf
          else
            oneof
              [
                leaf;
                map
                  (fun vs -> Ft_exp.Jstore.List vs)
                  (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs -> Ft_exp.Jstore.Obj kvs)
                  (list_size (int_bound 4)
                     (pair string (self (n / 2))));
              ])
        n)

let rec value_eq a b =
  match (a, b) with
  | Ft_exp.Jstore.Float x, Ft_exp.Jstore.Float y ->
      (Float.is_nan x && Float.is_nan y) || x = y
  | Ft_exp.Jstore.List xs, Ft_exp.Jstore.List ys ->
      List.length xs = List.length ys && List.for_all2 value_eq xs ys
  | Ft_exp.Jstore.Obj xs, Ft_exp.Jstore.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && value_eq v1 v2)
           xs ys
  | _ -> a = b

let prop_jstore_roundtrip =
  QCheck.Test.make ~count:500 ~name:"jstore round-trips"
    (QCheck.make value_gen) (fun v ->
      match Ft_exp.Jstore.of_string (Ft_exp.Jstore.to_string v) with
      | Ok v' -> value_eq v v'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_jstore_rejects_garbage () =
  List.iter
    (fun s ->
      match Ft_exp.Jstore.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* --- store ---------------------------------------------------------------- *)

let sample_record i =
  {
    Ft_exp.Store.key = Printf.sprintf "sweep/job/%d" i;
    seed = 100 + i;
    status =
      (if i mod 3 = 0 then Ft_exp.Store.Failed "injected: boom" else Ft_exp.Store.Completed);
    value = Ft_exp.Jstore.Obj [ ("n", Ft_exp.Jstore.Int i) ];
    duration_s = float_of_int i *. 0.5;
  }

let test_store_roundtrip () =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Ft_exp.Store.load ~dir ~sweep:"t" () in
      let records = List.init 10 sample_record in
      List.iter (Ft_exp.Store.add store) records;
      Ft_exp.Store.close store;
      let reloaded = Ft_exp.Store.load ~dir ~sweep:"t" () in
      Alcotest.(check int) "all rows reloaded" 10
        (Ft_exp.Store.size reloaded);
      List.iter
        (fun (r : Ft_exp.Store.record) ->
          match
            Ft_exp.Store.find reloaded ~key:r.Ft_exp.Store.key
              ~seed:r.Ft_exp.Store.seed
          with
          | None -> Alcotest.fail ("missing " ^ r.Ft_exp.Store.key)
          | Some r' ->
              Alcotest.(check bool) "status survives" true
                (r.Ft_exp.Store.status = r'.Ft_exp.Store.status);
              Alcotest.(check bool) "value survives" true
                (value_eq r.Ft_exp.Store.value r'.Ft_exp.Store.value))
        records)

let test_store_skips_torn_line () =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Ft_exp.Store.load ~dir ~sweep:"t" () in
      Ft_exp.Store.add store (sample_record 1);
      Ft_exp.Store.close store;
      (* simulate a crash mid-append *)
      let oc =
        open_out_gen [ Open_wronly; Open_append ] 0o644
          (Ft_exp.Store.path store)
      in
      output_string oc "{\"key\":\"sweep/job/2\",\"se";
      close_out oc;
      let reloaded = Ft_exp.Store.load ~dir ~sweep:"t" () in
      Alcotest.(check int) "torn line ignored" 1 (Ft_exp.Store.size reloaded))

(* --- sweeps --------------------------------------------------------------- *)

let counting_jobs counter n =
  List.init n (fun i ->
      Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
          Atomic.incr counter;
          Ft_exp.Jstore.Int i))

let test_sweep_resume_skips_completed () =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let counter = Atomic.make 0 in
      let cold =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:dir ~quiet:true ~name:"s"
          (counting_jobs counter 12)
      in
      Alcotest.(check int) "cold: all ran" 12 cold.Ft_exp.Exp.ran;
      Alcotest.(check int) "cold: none skipped" 0 cold.Ft_exp.Exp.skipped;
      Alcotest.(check int) "cold: thunks called" 12 (Atomic.get counter);
      let warm =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:dir ~quiet:true ~name:"s"
          (counting_jobs counter 12)
      in
      Alcotest.(check int) "warm: none ran" 0 warm.Ft_exp.Exp.ran;
      Alcotest.(check int) "warm: all skipped" 12 warm.Ft_exp.Exp.skipped;
      Alcotest.(check int) "warm: no thunks called" 12 (Atomic.get counter);
      Alcotest.(check int) "warm: full records" 12
        (List.length warm.Ft_exp.Exp.records);
      (* --fresh ignores the cache and recomputes *)
      let fresh =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:dir ~quiet:true ~fresh:true
          ~name:"s" (counting_jobs counter 12)
      in
      Alcotest.(check int) "fresh: all ran" 12 fresh.Ft_exp.Exp.ran;
      Alcotest.(check int) "fresh: thunks called again" 24
        (Atomic.get counter))

let test_sweep_failed_rows_recorded () =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let jobs =
        List.init 5 (fun i ->
            Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i
              (fun () ->
                if i = 2 then failwith "injected";
                Ft_exp.Jstore.Int i))
      in
      let sr =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:dir ~quiet:true
          ~name:"f" jobs
      in
      Alcotest.(check int) "one failed row" 1 sr.Ft_exp.Exp.failed;
      let lookup = Ft_exp.Exp.lookup sr in
      Alcotest.(check bool) "failed job invisible to lookup" true
        (lookup "job/2" = None);
      Alcotest.(check bool) "healthy job visible" true
        (lookup "job/1" = Some (Ft_exp.Jstore.Int 1)))

(* A failed row is no verdict: a warm rerun retries it, and only it. *)
let test_sweep_warm_retries_failed_rows () =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let calls = Atomic.make 0 in
      let jobs () =
        List.init 5 (fun i ->
            Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i
              (fun () ->
                (* job 2 fails both attempts of the cold sweep (the
                   first call and the pool's one retry), then succeeds *)
                if i = 2 && Atomic.fetch_and_add calls 1 < 2 then
                  failwith "transient";
                Ft_exp.Jstore.Int i))
      in
      let sweep () =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:dir ~quiet:true
          ~name:"r" (jobs ())
      in
      let cold = sweep () in
      Alcotest.(check int) "cold: one failed" 1 cold.Ft_exp.Exp.failed;
      let warm = sweep () in
      Alcotest.(check int) "warm: the failed job ran again" 1
        warm.Ft_exp.Exp.ran;
      Alcotest.(check int) "warm: the completed jobs skipped" 4
        warm.Ft_exp.Exp.skipped;
      Alcotest.(check int) "warm: none failed" 0 warm.Ft_exp.Exp.failed;
      Alcotest.(check bool) "warm: the retried value is visible" true
        (Ft_exp.Exp.lookup warm "job/2" = Some (Ft_exp.Jstore.Int 2)))

(* The dead-job verdict: exactly the failed jobs' keys and errors. *)
let test_sweep_failures_lists_dead_jobs () =
  let jobs =
    List.init 6 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            if i = 4 then failwith "injected";
            Ft_exp.Jstore.Int i))
  in
  let sr =
    Ft_exp.Exp.run_sweep ~workers:2 ~quiet:true ~name:"d" jobs
  in
  Alcotest.(check (list (pair string string)))
    "one dead job, with its error"
    [ ("job/4", "Failure(\"injected\") (after 2 attempts)") ]
    (Ft_exp.Exp.failures sr)

(* With no [out_dir] a sweep runs every job in memory and touches no
   file, yet its lookup agrees with a stored sweep's, failed job
   included. *)
let test_sweep_in_memory_matches_stored () =
  let jobs () =
    List.init 6 (fun i ->
        Ft_exp.Job.make ~key:(Printf.sprintf "job/%d" i) ~seed:i (fun () ->
            if i = 3 then failwith "injected";
            Ft_exp.Jstore.Int (i * i)))
  in
  let dir = mk_temp_dir () and cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf dir)
    (fun () ->
      Sys.chdir dir;
      let mem =
        Ft_exp.Exp.run_sweep ~workers:2 ~quiet:true ~name:"m"
          (jobs ())
      in
      Alcotest.(check int) "in memory: all ran" 6 mem.Ft_exp.Exp.ran;
      Alcotest.(check int) "in memory: none skipped" 0 mem.Ft_exp.Exp.skipped;
      Alcotest.(check int) "in memory: failed counted" 1 mem.Ft_exp.Exp.failed;
      Alcotest.(check (array string)) "in memory: no file" [||]
        (Sys.readdir dir);
      let stored =
        Ft_exp.Exp.run_sweep ~workers:2 ~out_dir:"store"
          ~quiet:true ~name:"m" (jobs ())
      in
      let in_mem = Ft_exp.Exp.lookup mem
      and on_disk = Ft_exp.Exp.lookup stored in
      List.iter
        (fun (j : Ft_exp.Job.t) ->
          Alcotest.(check bool) (j.Ft_exp.Job.key ^ " same value") true
            (in_mem j.Ft_exp.Job.key = on_disk j.Ft_exp.Job.key))
        (jobs ());
      Alcotest.(check bool) "healthy job present" true
        (in_mem "job/2" = Some (Ft_exp.Jstore.Int 4));
      Alcotest.(check bool) "failed job absent in memory" true
        (in_mem "job/3" = None);
      Alcotest.(check bool) "failed job absent when stored" true
        (on_disk "job/3" = None))

(* --- determinism regression: parallel == serial --------------------------- *)

let in_memory ~workers jobs =
  Ft_exp.Exp.lookup
    (Ft_exp.Exp.run_sweep ~workers ~quiet:true ~name:"determinism" jobs)

(* The acceptance bar for the whole refactor: the rendered tables are
   byte-identical at -j 1 and -j 4.  Small campaigns keep the test
   quick; determinism does not depend on campaign size because every
   trial seed derives from the campaign's identity. *)

let table1_rendered workers =
  let jobs =
    Ft_harness.Table1.jobs ~target_crashes:2 ~max_attempts:20
      ~app:Ft_harness.Table1.Postgres ()
  in
  let lookup = in_memory ~workers jobs in
  Ft_harness.Table1.render ~app:Ft_harness.Table1.Postgres
    (Ft_harness.Table1.of_records ~target_crashes:2 ~max_attempts:20
       ~app:Ft_harness.Table1.Postgres lookup)

let test_table1_parallel_equals_serial () =
  Alcotest.(check string)
    "table1 -j1 == -j4" (table1_rendered 1) (table1_rendered 4)

let table2_rendered workers =
  let jobs =
    Ft_harness.Table2.jobs ~target_crashes:2 ~max_attempts:10
      ~app:Ft_harness.Table1.Postgres ()
  in
  let lookup = in_memory ~workers jobs in
  Ft_harness.Table2.render ~app:Ft_harness.Table1.Postgres
    (Ft_harness.Table2.of_records ~target_crashes:2 ~max_attempts:10
       ~app:Ft_harness.Table1.Postgres lookup)

let test_table2_parallel_equals_serial () =
  Alcotest.(check string)
    "table2 -j1 == -j4" (table2_rendered 1) (table2_rendered 4)

let figure8_rendered workers =
  let jobs = Ft_harness.Figure8.jobs ~scale:0.05 Ft_harness.Figure8.Nvi in
  let lookup = in_memory ~workers jobs in
  Ft_harness.Figure8.render
    (Ft_harness.Figure8.of_records ~scale:0.05 Ft_harness.Figure8.Nvi lookup)

let test_figure8_parallel_equals_serial () =
  Alcotest.(check string)
    "figure8 -j1 == -j4" (figure8_rendered 1) (figure8_rendered 4)

(* --- exact nearest-rank percentiles -------------------------------------- *)

let test_percentile_tiny_samples () =
  Alcotest.(check int) "n=1 p50" 42 (Ft_exp.Metrics.p50 [| 42 |]);
  Alcotest.(check int) "n=1 p999" 42 (Ft_exp.Metrics.p999 [| 42 |]);
  let two = [| 20; 10 |] in
  Alcotest.(check int) "n=2 p50 lands on the first element" 10
    (Ft_exp.Metrics.p50 two);
  Alcotest.(check int) "n=2 p99 lands on the second" 20
    (Ft_exp.Metrics.p99 two);
  Alcotest.(check int) "q=1 is the max" 20 (Ft_exp.Metrics.percentile two 1.0);
  Alcotest.(check int) "input array untouched" 20 two.(0)

let test_percentile_ties () =
  let a = [| 5; 1; 5; 5; 9 |] in
  Alcotest.(check int) "p50 under ties" 5 (Ft_exp.Metrics.p50 a);
  (* rank ceil(0.8 * 5) = 4 is still inside the tied run *)
  Alcotest.(check int) "p80 under ties" 5 (Ft_exp.Metrics.percentile a 0.8);
  (* rank ceil(0.9 * 5) = 5 steps past it *)
  Alcotest.(check int) "p90 past the ties" 9 (Ft_exp.Metrics.percentile a 0.9);
  Alcotest.(check int) "p99 top" 9 (Ft_exp.Metrics.p99 a)

let test_percentile_rejects () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Metrics.percentile: empty sample") (fun () ->
      ignore (Ft_exp.Metrics.p50 [||]));
  Alcotest.check_raises "q = 0"
    (Invalid_argument "Metrics.percentile: q outside (0, 1]") (fun () ->
      ignore (Ft_exp.Metrics.percentile [| 1 |] 0.));
  Alcotest.check_raises "q > 1"
    (Invalid_argument "Metrics.percentile: q outside (0, 1]") (fun () ->
      ignore (Ft_exp.Metrics.percentile [| 1 |] 1.5))

(* The histogram path (what sharded campaigns merge) must agree with
   expanding every cell and taking the plain percentile. *)
let prop_percentile_counts_matches_expansion =
  QCheck.Test.make ~name:"histogram percentile == expanded percentile"
    ~count:300
    QCheck.(
      pair
        (In_range.list 1 8 (pair (0 -- 100) (0 -- 3)))
        (In_range.int 1 1000))
    (fun (cells, qm) ->
      let q = float_of_int qm /. 1000. in
      let total = List.fold_left (fun a (_, c) -> a + c) 0 cells in
      QCheck.assume (total > 0);
      let expanded =
        Array.of_list
          (List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) cells)
      in
      Ft_exp.Metrics.percentile_counts (Array.of_list cells) q
      = Ft_exp.Metrics.percentile expanded q)

let tests =
  [
    Alcotest.test_case "pool runs each job once" `Quick
      test_pool_runs_each_job_once;
    Alcotest.test_case "percentile tiny samples" `Quick
      test_percentile_tiny_samples;
    Alcotest.test_case "percentile ties" `Quick test_percentile_ties;
    Alcotest.test_case "percentile rejects bad input" `Quick
      test_percentile_rejects;
    QCheck_alcotest.to_alcotest prop_percentile_counts_matches_expansion;
    Alcotest.test_case "pool contains failures" `Quick
      test_pool_contains_failures;
    Alcotest.test_case "pool survives raising progress callback" `Quick
      test_pool_survives_raising_progress_callback;
    Alcotest.test_case "pool surfaces failed count" `Quick
      test_pool_surfaces_failed_count;
    Alcotest.test_case "pool retry recovers" `Quick test_pool_retry_recovers;
    QCheck_alcotest.to_alcotest prop_jstore_roundtrip;
    Alcotest.test_case "jstore rejects garbage" `Quick
      test_jstore_rejects_garbage;
    Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store skips torn line" `Quick
      test_store_skips_torn_line;
    Alcotest.test_case "sweep resume skips completed" `Quick
      test_sweep_resume_skips_completed;
    Alcotest.test_case "sweep records failures" `Quick
      test_sweep_failed_rows_recorded;
    Alcotest.test_case "sweep warm retries failed rows" `Quick
      test_sweep_warm_retries_failed_rows;
    Alcotest.test_case "sweep failures lists dead jobs" `Quick
      test_sweep_failures_lists_dead_jobs;
    Alcotest.test_case "sweep in memory matches stored" `Quick
      test_sweep_in_memory_matches_stored;
    Alcotest.test_case "table1 parallel == serial" `Slow
      test_table1_parallel_equals_serial;
    Alcotest.test_case "table2 parallel == serial" `Slow
      test_table2_parallel_equals_serial;
    Alcotest.test_case "figure8 parallel == serial" `Slow
      test_figure8_parallel_equals_serial;
  ]

let () = Alcotest.run "ft_exp" [ ("exp", tests) ]
