(** The experiment runner: ties jobs, pool and store into resumable
    sweeps.

    A sweep is a named list of jobs.  [run_sweep] skips every job whose
    key+seed already completed in the sweep's results store, runs the
    rest on the pool, appends their rows, and returns one record per job in
    job-list order — so the harness render functions see the same rows
    whether the results were computed serially, in parallel, in an
    earlier process entirely, or in memory with no store at all. *)

type sweep_result = {
  records : Store.record list;  (** one per job, in job order *)
  ran : int;
  skipped : int;  (** already completed in the warm store *)
  failed : int;
}

let default_out_dir = "results"

let progress_printer ~name =
  fun (p : Pool.progress) ->
    let eta =
      if Float.is_finite p.Pool.eta_s then
        Printf.sprintf "%.0fs" p.Pool.eta_s
      else "?"
    in
    Printf.eprintf
      "\r[%s] %d/%d jobs done%s  elapsed %.0fs  eta %s  util %.0f%%  (-j %d)  %!"
      name p.Pool.finished p.Pool.total
      (if p.Pool.failed > 0 then Printf.sprintf " (%d failed)" p.Pool.failed
       else "")
      p.Pool.elapsed_s eta
      (100. *. p.Pool.utilization)
      p.Pool.workers

let record_of_pool_result (j : Job.t) outcome dur =
  match outcome with
  | Pool.Done v ->
      {
        Store.key = j.Job.key;
        seed = j.Job.seed;
        status = Store.Completed;
        value = v;
        duration_s = dur;
      }
  | Pool.Failed { error; attempts } ->
      {
        Store.key = j.Job.key;
        seed = j.Job.seed;
        status = Store.Failed (Printf.sprintf "%s (after %d attempts)" error attempts);
        value = Jstore.Null;
        duration_s = dur;
      }

let run_sweep ?workers ?(fresh = false) ?out_dir
    ?(quiet = false) ~name jobs =
  let on_progress = if quiet then None else Some (progress_printer ~name) in
  let run todo =
    let results = Pool.run ?workers ?on_progress todo in
    if (not quiet) && todo <> [] then prerr_newline ();
    List.map (fun (j, outcome, dur) -> record_of_pool_result j outcome dur)
      results
  in
  let records, ran =
    match out_dir with
    | None -> (run jobs, List.length jobs)
    | Some dir ->
        let store = Store.load ~fresh ~dir ~sweep:name () in
        (* a failed row is no verdict: rerun it *)
        let todo =
          List.filter
            (fun j ->
              match Store.find store ~key:j.Job.key ~seed:j.Job.seed with
              | Some { Store.status = Store.Completed; _ } -> false
              | _ -> true)
            jobs
        in
        let total = List.length jobs in
        let skipped = total - List.length todo in
        if (not quiet) && skipped > 0 then
          Printf.eprintf "[%s] warm store %s: skipped %d/%d completed jobs\n%!"
            name (Store.path store) skipped total;
        List.iter (Store.add store) (run todo);
        Store.close store;
        ( List.map
            (fun j ->
              match Store.find store ~key:j.Job.key ~seed:j.Job.seed with
              | Some r -> r
              | None ->
                  (* unreachable: every todo job was just added *)
                  {
                    Store.key = j.Job.key;
                    seed = j.Job.seed;
                    status = Store.Failed "missing from store";
                    value = Jstore.Null;
                    duration_s = 0.;
                  })
            jobs,
          List.length todo )
  in
  let failed =
    List.fold_left
      (fun n (r : Store.record) ->
        match r.Store.status with Store.Failed _ -> n + 1 | _ -> n)
      0 records
  in
  { records; ran; skipped = List.length jobs - ran; failed }

let failures sr =
  List.filter_map
    (fun (r : Store.record) ->
      match r.Store.status with
      | Store.Failed e -> Some (r.Store.key, e)
      | Store.Completed -> None)
    sr.records

let lookup sr =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Store.record) ->
      match r.Store.status with
      | Store.Completed -> Hashtbl.replace tbl r.Store.key r.Store.value
      | Store.Failed _ -> ())
    sr.records;
  fun key -> Hashtbl.find_opt tbl key
