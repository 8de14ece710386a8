(** Serve: the fleet-scale serving campaign — hundreds to thousands of
    postgres instances under continuous fault injection, measured the
    way an operator would measure them: request-latency percentiles,
    goodput, useful work per unit cost, and time-to-recover after each
    crash.

    The load is open-loop: each tenant's query stream arrives at fixed
    absolute times ({!Ft_os.Kernel.set_input_absolute}), so a crash
    shows up as latency on the backlog instead of politely shifting the
    schedule — the regime where generic recovery's stall is visible to
    users.  Every query is acknowledged with a sequence-numbered visible
    output ({!Ft_apps.Postgres} driver mode); latency is the ack's
    engine timestamp minus the query's scheduled arrival, and MTTR is
    the gap from each crash to the first subsequent ack.

    Tenants are sharded into {!Ft_runtime.Scheduler} instances — many
    tenants stepped by one scheduler against a shared virtual clock,
    optionally sharing one storm-torn {!Ft_net.Transport} — and the
    shards fan out over {!Ft_exp.Exp} jobs, so [-j 1] and [-j N] produce
    byte-identical campaigns (each shard is a pure function of its key
    and seed).

    Oracles ride along: per-tenant Consistency against a fault-free
    reference run (duplicates tolerated; a tenant that ran out of
    recovery budget may be a prefix, but never {e wrong}), and the
    visible half of Save-work, as in {!Netstorm}.  Cost accounting
    follows Dwork–Halpern–Waarts: useful work is acked requests, cost is
    instructions executed — replay instructions are pure waste, so the
    work-per-cost ratio is exactly what the recovery protocol is
    spending to stay transparent. *)

module Engine = Ft_runtime.Engine
module Scheduler = Ft_runtime.Scheduler
module Consistency = Ft_core.Consistency
module Save_work = Ft_core.Save_work
module Jstore = Ft_exp.Jstore

type params = {
  procs : int;           (* tenant instances in the fleet *)
  requests : int;        (* total queries, fleet-wide *)
  crash_rate : float;    (* expected kills per tenant per simulated second *)
  storm : Netstorm.point option;
      (* weather on the shard-shared transport (loss/dup/reorder tiers) *)
  seed : int;
  shard_size : int;      (* tenants per scheduler/job *)
  interval_ns : int;     (* open-loop arrival interval per tenant *)
  keyspace : int;
  check_every : int;     (* postgres sanity-check cadence *)
  poison : int;
      (* crash-looping tenants: the first [poison] tenants of the fleet
         carry a deterministic Bohrbug (a wild jump on the program's hot
         path) that every generic replay re-executes — the crash loop
         generic recovery cannot escape.  Arms the per-tenant quarantine
         breaker fleet-wide; the demo is that the breaker parks the
         loopers while healthy tenants' tail latency stays bounded *)
  recovery_crash_rate : float;
      (* expected nested failures per tenant per campaign: crashes
         injected into the recovery path itself (mid-restore,
         mid-cascade, mid-commit-round), occurrence-indexed via
         {!Ft_faults.Recovery_plan} — recovery must be idempotent to
         survive them *)
  det_cap : int;
      (* hard cap on live determinants per tenant (0 = uncapped): past
         it the kernel forces a commit-equivalent flush instead of
         growing the log — the graceful-degradation bound *)
}

let default_params =
  {
    procs = 100;
    requests = 100_000;
    crash_rate = 0.5;
    storm = None;
    seed = 42;
    shard_size = 64;
    interval_ns = 1_000_000;
    keyspace = 120;
    check_every = 16;
    poison = 0;
    recovery_crash_rate = 0.;
    det_cap = 256;
  }

(* Small, fast, still multi-shard: the CI gate. *)
let smoke_params =
  {
    procs = 8;
    requests = 1_600;
    crash_rate = 4.0;
    storm = None;
    seed = 42;
    shard_size = 4;
    interval_ns = 1_000_000;
    keyspace = 60;
    check_every = 16;
    poison = 0;
    recovery_crash_rate = 0.;
    det_cap = 64;
  }

let queries_per_tenant p = max 1 (p.requests / max 1 p.procs)

(* Per-tenant derived seed: decorrelates query streams and kill clocks
   across the fleet while staying a pure function of (seed, tenant). *)
let tenant_seed ~seed tid =
  let rng = Random.State.make [| seed; tid; 0x5e7e |] in
  Random.State.bits rng

(* Seeded Poisson kill process for one tenant: exponential gaps at
   [crash_rate] per simulated second, out to a horizon generously past
   the open-loop schedule (recovery stalls push completion right).
   The sampling itself lives in {!Ft_faults.Kill_plan} (shared with the
   rescue campaign); the draw order is unchanged, so schedules are
   byte-identical to what this module always produced. *)
let tenant_kills ~crash_rate ~horizon_ns ~seed tid =
  Ft_faults.Kill_plan.tenant ~crash_rate ~horizon_ns ~seed tid

let tenant_workload p ~seed tid =
  let pg =
    {
      Ft_apps.Postgres.queries = queries_per_tenant p;
      keyspace = p.keyspace;
      interval_ns = p.interval_ns;
      check_every = p.check_every;
      seed = tenant_seed ~seed tid;
    }
  in
  Ft_apps.Postgres.workload ~params:pg ~ack:true ~open_loop:true ()

(* A deterministic Bohrbug: the program's first syscall becomes a wild
   jump, so every execution crashes ([Bad_jump]) before the first ack and
   every generic replay re-executes the crash — zero progress, forever.
   This is the recurrence the rescue campaign measures, loose in a
   fleet. *)
let poison_program code =
  let rec find i =
    if i >= Array.length code then None
    else
      match code.(i) with Ft_vm.Instr.Sys _ -> Some i | _ -> find (i + 1)
  in
  match find 0 with
  | Some i -> code.(i) <- Ft_vm.Instr.Jmp (-1)
  | None -> ()

(* Breaker tuning for poisoned fleets: a crash-looping tenant racks up
   crashes separated only by replay time, so [threshold] of them land
   well inside the window within milliseconds of simulated time; healthy
   tenants under Poisson kills never accumulate that density. *)
let quarantine_params =
  {
    Ft_recovery.Quarantine.window_ns = 50_000_000;
    threshold = 6;
    backoff_ns = 20_000_000;
    backoff_mult = 2.0;
    max_trips = 4;
  }

let tenant_config ?quarantine ?(recovery_kills = []) ?(det_cap = 0) ~protocol
    ~kills (w : Ft_apps.Workload.t) =
  Ft_apps.Workload.engine_config w
    {
      Engine.default_config with
      protocol;
      kills;
      recovery_kills;
      det_cap;
      (* Random kills can land during replay before any new commit;
         give the budget room so only a genuinely wedged tenant fails. *)
      max_recovery_attempts = 10;
      quarantine;
    }

(* Build one shard's scheduler: tenants [lo, hi) of the fleet, each with
   its own kernel, plus (under a storm) one shared transport carved into
   per-kernel pid ranges. *)
let shard_scheduler p ~protocol ~lo ~hi =
  let n = hi - lo in
  let horizon_ns = (queries_per_tenant p * p.interval_ns * 2) + 2_000_000_000 in
  let ws = Array.init n (fun i -> tenant_workload p ~seed:p.seed (lo + i)) in
  let kernels =
    Array.mapi
      (fun i w -> Ft_apps.Workload.kernel ~seed:(tenant_seed ~seed:p.seed (lo + i) lxor 0x6b) w)
      ws
  in
  (match p.storm with
  | None -> ()
  | Some point ->
      let wnprocs = ws.(0).Ft_apps.Workload.nprocs in
      let policy =
        Ft_net.Policy.make ~drop:point.Netstorm.loss
          ~duplicate:point.Netstorm.dup ~reorder:point.Netstorm.reorder ()
      in
      let costs = Ft_os.Kernel.costs kernels.(0) in
      let tr =
        Ft_net.Transport.create
          ~policy:(fun _ _ -> policy)
          ~seed:(tenant_seed ~seed:p.seed (lo lxor 0x517))
          ~nprocs:(n * wnprocs)
          ~latency_ns:costs.Ft_os.Kernel.network_latency_ns
          ~jitter_ns:costs.Ft_os.Kernel.network_jitter_ns
          ~deliver:(fun ~at ~src:_ ~dst m ->
            Ft_os.Kernel.deliver_net kernels.(dst / wnprocs) ~at
              ~dst:(dst mod wnprocs) m)
          ()
      in
      Array.iteri
        (fun i k -> Ft_os.Kernel.set_net k ~base:(i * wnprocs) tr)
        kernels);
  let tenants =
    Array.init n (fun i ->
        let tid = lo + i in
        if tid < p.poison then
          poison_program ws.(i).Ft_apps.Workload.programs.(0);
        let kills =
          tenant_kills ~crash_rate:p.crash_rate ~horizon_ns ~seed:p.seed tid
        in
        let recovery_kills =
          Ft_faults.Recovery_plan.tenant ~rate:p.recovery_crash_rate
            ~seed:p.seed tid
        in
        let quarantine =
          if p.poison > 0 then Some quarantine_params else None
        in
        ( tenant_config ?quarantine ~recovery_kills ~det_cap:p.det_cap
            ~protocol ~kills ws.(i),
          kernels.(i),
          ws.(i).Ft_apps.Workload.programs ))
  in
  Scheduler.create ~tenants ()

(* --- per-tenant measurement ---------------------------------------------- *)

(* First-occurrence ack times, indexed by 1-based query number.  The
   first occurrence is what the user saw; a rollback may re-emit the ack
   later, but visible output cannot be retracted. *)
let ack_times p (r : Scheduler.result) =
  let q = queries_per_tenant p in
  let times = Array.make (q + 1) (-1) in
  List.iter
    (fun (_, v, t) ->
      let n = v - Ft_apps.Postgres.ack_base in
      if n >= 1 && n <= q && times.(n) < 0 then times.(n) <- t)
    r.Scheduler.visible_times;
  times

(* (acked, latencies) — latency in ns against the open-loop schedule. *)
let latencies p times =
  let lats = ref [] and acked = ref 0 in
  Array.iteri
    (fun n t ->
      if n >= 1 && t >= 0 then begin
        incr acked;
        let arrival = (n - 1) * p.interval_ns in
        lats := max 0 (t - arrival) :: !lats
      end)
    times;
  (!acked, !lats)

(* MTTR: each crash to the first ack strictly after it — how long the
   tenant's users stared at a stalled service. *)
let mttrs (r : Scheduler.result) times =
  let acks =
    Array.to_list times |> List.filter (fun t -> t >= 0) |> List.sort compare
  in
  List.filter_map
    (fun (_, ct) ->
      List.find_opt (fun t -> t > ct) acks |> Option.map (fun t -> t - ct))
    r.Scheduler.crash_times

(* --- shard jobs ------------------------------------------------------------ *)

let storm_tag p =
  match p.storm with None -> "calm0" | Some pt -> pt.Netstorm.label

let job_key p ~label ~shard =
  Printf.sprintf
    "serve/%s/%s/procs=%d/req=%d/crash=%g/rcrash=%g/dcap=%d/poison=%d/shard=%d/size=%d/seed=%d"
    label (storm_tag p) p.procs p.requests p.crash_rate
    p.recovery_crash_rate p.det_cap p.poison shard p.shard_size p.seed

let shard_bounds p shard =
  let lo = shard * p.shard_size in
  (lo, min p.procs (lo + p.shard_size))

let nshards p = (p.procs + p.shard_size - 1) / p.shard_size

let job p ~protocol shard =
  let label = protocol.Ft_core.Protocol.spec_name in
  Ft_exp.Job.make
    ~key:(job_key p ~label ~shard)
    ~seed:p.seed
    (fun () ->
      let lo, hi = shard_bounds p shard in
      let sched = shard_scheduler p ~protocol ~lo ~hi in
      let results = Scheduler.run sched in
      (* Fault-free reference per tenant: the Consistency oracle's
         ground truth and the cost baseline. *)
      let refs =
        Array.init (hi - lo) (fun i ->
            let w = tenant_workload p ~seed:p.seed (lo + i) in
            let cfg = tenant_config ~protocol ~kills:[] w in
            let kernel =
              Ft_apps.Workload.kernel
                ~seed:(tenant_seed ~seed:p.seed (lo + i) lxor 0x6b)
                w
            in
            snd
              (Engine.execute ~cfg ~kernel
                 ~programs:w.Ft_apps.Workload.programs ()))
      in
      let lat_hist = Hashtbl.create 256 in
      let mttr_all = ref [] and mttr_nested = ref [] in
      let acked = ref 0 and crashes = ref 0 and recoveries = ref 0 in
      let failed = ref 0 and instr = ref 0 and ref_instr = ref 0 in
      let sim_ns = ref 0 in
      let quarantined = ref 0 and crash_loops = ref 0 in
      let nested = ref 0 and resumes = ref 0 in
      let det_hw = ref 0 and det_flushes = ref 0 in
      let bad = ref [] in
      Array.iteri
        (fun i (r : Scheduler.result) ->
          let times = ack_times p r in
          let a, lats = latencies p times in
          acked := !acked + a;
          List.iter
            (fun l ->
              let cell = l / 1000 in
              Hashtbl.replace lat_hist cell
                (1 + Option.value ~default:0 (Hashtbl.find_opt lat_hist cell)))
            lats;
          let tenant_mttrs = mttrs r times in
          mttr_all := List.rev_append tenant_mttrs !mttr_all;
          (* MTTR through a crashed recovery: the repair interval of a
             tenant whose recovery path itself died at least once *)
          if r.Scheduler.nested_crashes > 0 then
            mttr_nested := List.rev_append tenant_mttrs !mttr_nested;
          nested := !nested + r.Scheduler.nested_crashes;
          resumes := !resumes + r.Scheduler.cascade_resumes;
          det_hw := max !det_hw r.Scheduler.det_high_water;
          det_flushes := !det_flushes + r.Scheduler.det_forced_flushes;
          crashes := !crashes + r.Scheduler.crashes;
          recoveries := !recoveries + r.Scheduler.recoveries;
          instr := !instr + r.Scheduler.wall_instructions;
          sim_ns := max !sim_ns r.Scheduler.sim_time_ns;
          let reference = refs.(i) in
          ref_instr := !ref_instr + reference.Scheduler.wall_instructions;
          let tname = Printf.sprintf "tenant %d" (lo + i) in
          let poisoned = lo + i < p.poison in
          if r.Scheduler.quarantine_trips > 0 then begin
            incr quarantined;
            crash_loops := !crash_loops + r.Scheduler.quarantine_trips
          end;
          (* A poisoned tenant's job is to crash-loop: not completing
             (parked, latched, budget-exhausted) is its expected fate,
             not an oracle violation.  Its output must still never be
             WRONG — the consistency check below applies to everyone. *)
          (match r.Scheduler.outcome with
          | Scheduler.Completed -> ()
          | _ when poisoned -> incr failed
          | o ->
              incr failed;
              bad :=
                Printf.sprintf "%s: outcome %s" tname
                  (Scheduler.outcome_name o)
                :: !bad);
          (match
             Consistency.check ~reference:reference.Scheduler.visible
               ~observed:r.Scheduler.visible
           with
          | Consistency.Consistent -> ()
          | Consistency.Truncated _ when r.Scheduler.outcome <> Scheduler.Completed ->
              (* ran out of recovery budget mid-schedule: a prefix is
                 honest — only wrong output is a violation *)
              ()
          | v ->
              bad :=
                Printf.sprintf "%s: %s" tname
                  (Format.asprintf "%a" Consistency.pp_verdict v)
                :: !bad);
          if
            (not poisoned)
            && Save_work.visible_violations reference.Scheduler.trace = []
            && Save_work.visible_violations r.Scheduler.trace <> []
          then bad := Printf.sprintf "%s: save-work broken" tname :: !bad)
        results;
      let lat_cells =
        Hashtbl.fold (fun us n acc -> (us, n) :: acc) lat_hist []
        |> List.sort compare
      in
      Jstore.Obj
        [
          ("tenants", Jstore.Int (hi - lo));
          ("requests", Jstore.Int ((hi - lo) * queries_per_tenant p));
          ("acked", Jstore.Int !acked);
          ("crashes", Jstore.Int !crashes);
          ("recoveries", Jstore.Int !recoveries);
          ("failed", Jstore.Int !failed);
          ("sim_ns", Jstore.Int !sim_ns);
          ("instr", Jstore.Int !instr);
          ("ref_instr", Jstore.Int !ref_instr);
          ("sched_steps", Jstore.Int (Scheduler.steps sched));
          ("quarantined_tenants", Jstore.Int !quarantined);
          ("crash_loop_events", Jstore.Int !crash_loops);
          ("nested_crashes", Jstore.Int !nested);
          ("cascade_resumes", Jstore.Int !resumes);
          ("det_high_water", Jstore.Int !det_hw);
          ("det_forced_flushes", Jstore.Int !det_flushes);
          ( "mttr_nested_ns",
            Jstore.List (List.rev_map (fun t -> Jstore.Int t) !mttr_nested) );
          ("bad", Jstore.List (List.rev_map (fun s -> Jstore.String s) !bad));
          ( "lat_us",
            Jstore.List
              (List.map
                 (fun (us, n) -> Jstore.List [ Jstore.Int us; Jstore.Int n ])
                 lat_cells) );
          ("mttr_ns", Jstore.List (List.rev_map (fun t -> Jstore.Int t) !mttr_all));
        ])

let jobs ?(protocols = [ Ft_core.Protocols.cpvs ]) p =
  List.concat_map
    (fun protocol ->
      List.init (nshards p) (fun shard -> job p ~protocol shard))
    protocols

(* --- report ---------------------------------------------------------------- *)

type proto_summary = {
  s_protocol : string;
  s_tenants : int;
  s_requests : int;
  s_acked : int;
  s_crashes : int;
  s_recoveries : int;
  s_failed : int;            (* tenants that did not complete *)
  s_sim_ns : int;            (* fleet wall: max tenant sim time *)
  s_instr : int;
  s_ref_instr : int;
  s_p50_ns : int;
  s_p99_ns : int;
  s_p999_ns : int;
  s_mttr_count : int;
  s_mttr_mean_ns : int;
  s_mttr_max_ns : int;
  s_goodput : float;         (* acked requests per simulated second *)
  s_work_per_minstr : float; (* acked requests per million instructions *)
  s_overhead : float;        (* instructions vs the fault-free reference *)
  s_quarantined : int;       (* tenants the circuit breaker parked *)
  s_crash_loop_events : int; (* breaker trips across the fleet *)
  s_nested_crashes : int;    (* crashes that landed inside recovery *)
  s_cascade_resumes : int;   (* rollback cascades resumed, not restarted *)
  s_det_high_water : int;    (* peak live determinants, any tenant *)
  s_det_forced_flushes : int; (* cap-triggered flushes across the fleet *)
  s_mttr_nested_count : int;
  s_mttr_nested_mean_ns : int;
      (* repair time of tenants whose recovery path itself crashed *)
  s_bad : string list;
}

type report = { params : params; summaries : proto_summary list }

let clean r = List.for_all (fun s -> s.s_bad = []) r.summaries

let summarize ~label shard_values =
  let sum f = List.fold_left (fun a v -> a + f v) 0 shard_values in
  let geti k v = Jstore.get_int k v in
  let tenants = sum (geti "tenants") in
  let requests = sum (geti "requests") in
  let acked = sum (geti "acked") in
  let sim_ns = List.fold_left (fun a v -> max a (geti "sim_ns" v)) 0 shard_values in
  let instr = sum (geti "instr") in
  let ref_instr = sum (geti "ref_instr") in
  let cells =
    List.concat_map
      (fun v ->
        match Jstore.member "lat_us" v with
        | Some (Jstore.List l) ->
            List.filter_map
              (function
                | Jstore.List [ Jstore.Int us; Jstore.Int n ] -> Some (us, n)
                | _ -> None)
              l
        | _ -> [])
      shard_values
    |> Array.of_list
  in
  let pct q =
    if Array.length cells = 0 then 0
    else Ft_exp.Metrics.percentile_counts cells q * 1000
  in
  let int_list field =
    List.concat_map
      (fun v ->
        match Jstore.member field v with
        | Some (Jstore.List l) -> List.filter_map Jstore.to_int l
        | _ -> [])
      shard_values
  in
  let mttrs = int_list "mttr_ns" in
  let mttrs_nested = int_list "mttr_nested_ns" in
  let bad =
    List.concat_map
      (fun v ->
        match Jstore.member "bad" v with
        | Some (Jstore.List l) -> List.filter_map Jstore.to_str l
        | _ -> [])
      shard_values
  in
  let nm = List.length mttrs in
  let nmn = List.length mttrs_nested in
  {
    s_protocol = label;
    s_tenants = tenants;
    s_requests = requests;
    s_acked = acked;
    s_crashes = sum (geti "crashes");
    s_recoveries = sum (geti "recoveries");
    s_failed = sum (geti "failed");
    s_sim_ns = sim_ns;
    s_instr = instr;
    s_ref_instr = ref_instr;
    s_p50_ns = pct 0.50;
    s_p99_ns = pct 0.99;
    s_p999_ns = pct 0.999;
    s_mttr_count = nm;
    s_mttr_mean_ns =
      (if nm = 0 then 0 else List.fold_left ( + ) 0 mttrs / nm);
    s_mttr_max_ns = List.fold_left max 0 mttrs;
    s_goodput =
      (if sim_ns <= 0 then 0.
       else float_of_int acked /. (float_of_int sim_ns /. 1e9));
    s_work_per_minstr =
      (if instr <= 0 then 0.
       else float_of_int acked *. 1e6 /. float_of_int instr);
    s_overhead =
      (if ref_instr <= 0 then 0.
       else float_of_int instr /. float_of_int ref_instr);
    s_quarantined = sum (fun v -> Jstore.get_int ~default:0 "quarantined_tenants" v);
    s_crash_loop_events =
      sum (fun v -> Jstore.get_int ~default:0 "crash_loop_events" v);
    s_nested_crashes =
      sum (fun v -> Jstore.get_int ~default:0 "nested_crashes" v);
    s_cascade_resumes =
      sum (fun v -> Jstore.get_int ~default:0 "cascade_resumes" v);
    s_det_high_water =
      List.fold_left
        (fun a v -> max a (Jstore.get_int ~default:0 "det_high_water" v))
        0 shard_values;
    s_det_forced_flushes =
      sum (fun v -> Jstore.get_int ~default:0 "det_forced_flushes" v);
    s_mttr_nested_count = nmn;
    s_mttr_nested_mean_ns =
      (if nmn = 0 then 0 else List.fold_left ( + ) 0 mttrs_nested / nmn);
    s_bad = bad;
  }

let of_records ?(protocols = [ Ft_core.Protocols.cpvs ]) p lookup =
  let summaries =
    List.map
      (fun protocol ->
        let label = protocol.Ft_core.Protocol.spec_name in
        summarize ~label
          (List.filter_map
             (fun shard -> lookup (job_key p ~label ~shard))
             (List.init (nshards p) Fun.id)))
      protocols
  in
  { params = p; summaries }

let ms ns = Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)

let render r =
  let b = Buffer.create 1024 in
  let p = r.params in
  Buffer.add_string b
    (Report.section
       (Printf.sprintf
          "Serve: %d tenants, %d requests, crash-rate %g/s, \
           recovery-crash %g, det-cap %d, storm %s"
          p.procs p.requests p.crash_rate p.recovery_crash_rate p.det_cap
          (storm_tag p)));
  Buffer.add_string b
    (Report.table
       ~headers:
         [ "protocol"; "acked"; "goodput"; "p50"; "p99"; "p999"; "mttr";
           "crashes"; "nested"; "det"; "quar"; "work/Mi"; "overhead" ]
       ~rows:
         (List.map
            (fun s ->
              [
                s.s_protocol;
                Printf.sprintf "%d/%d" s.s_acked s.s_requests;
                Printf.sprintf "%.0f/s" s.s_goodput;
                ms s.s_p50_ns;
                ms s.s_p99_ns;
                ms s.s_p999_ns;
                (if s.s_mttr_count = 0 then "-"
                 else
                   Printf.sprintf "%s (max %s, n=%d)" (ms s.s_mttr_mean_ns)
                     (ms s.s_mttr_max_ns) s.s_mttr_count);
                string_of_int s.s_crashes;
                (* crashes that landed inside recovery, and how many
                   rollback cascades were resumed rather than restarted *)
                (if s.s_nested_crashes = 0 then "-"
                 else
                   Printf.sprintf "%d (%d res)" s.s_nested_crashes
                     s.s_cascade_resumes);
                (* determinant-log high-water / cap-forced flushes *)
                (if s.s_det_high_water = 0 then "-"
                 else
                   Printf.sprintf "hw %d/%d fl" s.s_det_high_water
                     s.s_det_forced_flushes);
                (if s.s_quarantined = 0 then "-"
                 else
                   Printf.sprintf "%d (%d trips)" s.s_quarantined
                     s.s_crash_loop_events);
                Printf.sprintf "%.1f" s.s_work_per_minstr;
                Printf.sprintf "%.2fx" s.s_overhead;
              ])
            r.summaries));
  let bad = List.concat_map (fun s -> s.s_bad) r.summaries in
  if bad = [] then
    Buffer.add_string b
      "\nNo oracle violations: every ack consistent with the fault-free \
       reference, Save-work intact.\n"
  else begin
    Buffer.add_string b "\nViolations:\n";
    List.iter
      (fun s ->
        List.iter
          (fun m ->
            Buffer.add_string b (Printf.sprintf "  [%s] %s\n" s.s_protocol m))
          s.s_bad)
      r.summaries
  end;
  Buffer.contents b
