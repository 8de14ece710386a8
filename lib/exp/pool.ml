(** Parallel job pool on OCaml 5 domains.

    A shared index into the job array stands in for a work queue (jobs
    are known up front, so "dequeue" is bumping a cursor under a mutex);
    [Condition] lets the coordinating thread sleep until workers finish.
    Results land in a slot per job, so the returned list is in input
    order no matter which domain finished first — the property the
    byte-identical-tables guarantee rests on.

    Failure containment mirrors the engine's own
    [max_recovery_attempts]: a raising job is retried a bounded number
    of times and then recorded as [Failed] instead of killing the sweep.
    Nothing times a job out: domains cannot be cancelled, and engine
    runs are bounded by [max_instructions], so the harness workloads do
    not hang. *)

type outcome =
  | Done of Jstore.value
  | Failed of { error : string; attempts : int }

type progress = {
  total : int;
  finished : int;
  failed : int;
  workers : int;
  elapsed_s : float;
  eta_s : float;  (** from mean job latency; infinite until one finishes *)
  utilization : float;  (** busy worker-time / (workers * elapsed) *)
}

let default_workers () = Domain.recommended_domain_count ()

(* A raising job gets this many more attempts before it is [Failed]. *)
let retries = 1

type 'a shared = {
  mutex : Mutex.t;
  done_cond : Condition.t;
  mutable next : int;  (** cursor into the job array: the "queue" *)
  mutable finished : int;
  mutable failed : int;
  mutable busy_s : float;
  mutable live : int;
      (** worker domains still running: the coordinator must stop
          waiting when every worker has died, or a sweep whose workers
          were all killed by asynchronous exceptions would hang *)
}

let run ?workers ?on_progress (jobs : Job.t list) =
  let arr = Array.of_list jobs in
  let n = Array.length arr in
  let workers =
    max 1 (min (match workers with Some w -> w | None -> default_workers ())
             (max 1 n))
  in
  let results = Array.make n None in
  let sh =
    {
      mutex = Mutex.create ();
      done_cond = Condition.create ();
      next = 0;
      finished = 0;
      failed = 0;
      busy_s = 0.;
      live = 0;
    }
  in
  let t0 = Unix.gettimeofday () in
  let snapshot () =
    (* call with [sh.mutex] held *)
    let elapsed = Unix.gettimeofday () -. t0 in
    {
      total = n;
      finished = sh.finished;
      failed = sh.failed;
      workers;
      elapsed_s = elapsed;
      eta_s =
        (if sh.finished = 0 then Float.infinity
         else
           elapsed /. float_of_int sh.finished
           *. float_of_int (n - sh.finished));
      utilization =
        (if elapsed <= 0. then 0.
         else sh.busy_s /. (float_of_int workers *. elapsed));
    }
  in
  (* One job, with bounded retry.  The returned duration covers all
     attempts (it feeds the utilization accounting). *)
  let attempt_job (j : Job.t) =
    let started = Unix.gettimeofday () in
    let rec go attempts =
      match j.Job.run () with
      | v -> Done v
      | exception e ->
          if attempts <= retries then go (attempts + 1)
          else Failed { error = Printexc.to_string e; attempts }
    in
    let outcome = go 1 in
    (outcome, Unix.gettimeofday () -. started)
  in
  let worker () =
    let rec loop () =
      Mutex.lock sh.mutex;
      let idx = sh.next in
      if idx < n then sh.next <- idx + 1;
      Mutex.unlock sh.mutex;
      if idx < n then begin
        let outcome, dur =
          (* [attempt_job] already confines exceptions raised by the job
             itself; this layer confines what it cannot — asynchronous
             exceptions (Out_of_memory, Stack_overflow) landing in the
             retry bookkeeping — so a worker domain survives anything a
             job can throw at it and the sweep continues. *)
          try attempt_job arr.(idx)
          with e ->
            ( Failed
                {
                  error = "worker exception: " ^ Printexc.to_string e;
                  attempts = 0;
                },
              0. )
        in
        Mutex.lock sh.mutex;
        results.(idx) <- Some (outcome, dur);
        sh.finished <- sh.finished + 1;
        (match outcome with
        | Failed _ -> sh.failed <- sh.failed + 1
        | Done _ -> ());
        sh.busy_s <- sh.busy_s +. dur;
        (match on_progress with
        | Some f -> ( try f (snapshot ()) with _ -> ())
        | None -> ());
        Condition.signal sh.done_cond;
        Mutex.unlock sh.mutex;
        loop ()
      end
    in
    loop ()
  in
  if workers = 1 then
    (* serial path: run in the calling domain, no spawn overhead *)
    worker ()
  else begin
    sh.live <- workers;
    let guarded_worker () =
      (* Last line of defence: whatever kills a worker, its death is
         recorded and the coordinator is woken, so the sweep ends with
         every unrun job reported as [Failed] instead of hanging. *)
      (try worker () with _ -> ());
      Mutex.lock sh.mutex;
      sh.live <- sh.live - 1;
      Condition.signal sh.done_cond;
      Mutex.unlock sh.mutex
    in
    let domains =
      Array.init workers (fun _ -> Domain.spawn guarded_worker)
    in
    (* Sleep until every slot is filled — or every worker is gone. *)
    Mutex.lock sh.mutex;
    while sh.finished < n && sh.live > 0 do
      Condition.wait sh.done_cond sh.mutex
    done;
    Mutex.unlock sh.mutex;
    Array.iter Domain.join domains
  end;
  Array.to_list
    (Array.mapi
       (fun i j ->
         match results.(i) with
         | Some (outcome, dur) -> (j, outcome, dur)
         | None -> (j, Failed { error = "job never ran"; attempts = 0 }, 0.))
       arr)
