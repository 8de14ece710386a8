(* fleet: an open-loop postgres fleet of 512 tenants in one multi-tenant
   scheduler, 40 queries each at 1 ms arrivals (20,480 requests, about 20
   beyond p99.9), under CPVS with Poisson stop-kills at 0.5 per tenant per
   simulated second.  Every tenant gets a fault-free reference run and the
   Consistency and Save-work-visible checks.  Latency is each ack's time
   against its scheduled arrival; MTTR is each crash to the tenant's first
   ack after it (as in serve).  1024 tenants peaked at 2.3 GB of OCaml
   heap (each tenant holds about 0.9 MB of machine and Rio memory, and its
   reference as much again); 512 peak near 1 GB.  A pass of 40 queries a
   tenant takes 1-2 s, so a run holds enough passes for a steady
   median. *)

module S = Ft_runtime.Scheduler
module Engine = Ft_runtime.Engine

let tenants = 512
let queries = 40
let interval_ns = 1_000_000
let crash_rate = 0.5
let protocol = Ft_core.Protocols.cpvs

let tenant_seed ~seed tid = Pass.subseed ~seed ~salt:0x5e7e tid

let workload ~seed tid =
  Ft_apps.Postgres.workload
    ~params:
      {
        Ft_apps.Postgres.queries;
        keyspace = 120;
        interval_ns;
        check_every = 16;
        seed = tenant_seed ~seed tid;
      }
    ~ack:true ~open_loop:true ()

let config ~kills w =
  Ft_apps.Workload.engine_config w
    {
      Engine.default_config with
      protocol;
      kills;
      det_cap = 256;
      (* kills can land during replay before any new commit *)
      max_recovery_attempts = 10;
    }

(* First-occurrence ack times by 1-based query number: a rollback may
   re-emit an ack, but the user saw the first one. *)
let ack_times (r : S.result) =
  let times = Array.make (queries + 1) (-1) in
  List.iter
    (fun (_, v, t) ->
      let n = v - Ft_apps.Postgres.ack_base in
      if n >= 1 && n <= queries && times.(n) < 0 then times.(n) <- t)
    r.S.visible_times;
  times

let setup ~seed ~out_dir:_ =
  let horizon_ns = (queries * interval_ns * 2) + 2_000_000_000 in
  (* machines copy their code, so a tenant and its reference share the
     compiled workload; each gets its own kernel *)
  let ws = Span.with_ "apps.build" (fun () -> Array.init tenants (workload ~seed)) in
  let kernel tid w =
    Ft_apps.Workload.kernel ~seed:(tenant_seed ~seed tid lxor 0x6b) w
  in
  let kernels = Array.mapi kernel ws in
  let ref_kernels = Array.mapi kernel ws in
  let kills =
    Array.init tenants
      (Ft_faults.Kill_plan.tenant ~crash_rate ~horizon_ns ~seed)
  in
  let sched =
    Span.with_ "scheduler.create" (fun () ->
        S.create
          ~tenants:
            (Array.init tenants (fun tid ->
                 ( config ~kills:kills.(tid) ws.(tid),
                   kernels.(tid),
                   ws.(tid).Ft_apps.Workload.programs )))
          ())
  in
  fun () ->
    let results = Span.with_ "scheduler.run" (fun () -> S.run sched) in
    let steps = S.steps sched in
    let digest = Buffer.create (1 lsl 20) in
    let failures = ref [] and lats = ref [] and mttrs = ref [] in
    let instr = ref 0 and ref_instr = ref 0 and words = ref 0 in
    let calls = ref 0 in
    Array.iteri
      (fun tid (r : S.result) ->
        Span.with_ ~op:tid "bench.op" @@ fun () ->
        let nprocs = ws.(tid).Ft_apps.Workload.nprocs in
        let t, reference =
          Span.with_ "engine.execute" (fun () ->
              Engine.execute ~cfg:(config ~kills:[] ws.(tid))
                ~kernel:ref_kernels.(tid)
                ~programs:ws.(tid).Ft_apps.Workload.programs ())
        in
        (match
           Pass.judge ~name:(Printf.sprintf "tenant %d" tid) ~protocol ~reference
             ~reference_saves_work:(lazy (Pass.saves_work reference))
             r
         with
        | Some f -> failures := f :: !failures
        | None -> ());
        let times = ack_times r in
        Array.iteri
          (fun n t ->
            if n >= 1 && t >= 0 then
              lats := max 0 (t - ((n - 1) * interval_ns)) :: !lats)
          times;
        let acks =
          List.sort compare (List.filter (fun t -> t >= 0) (Array.to_list times))
        in
        List.iter
          (fun (_, ct) ->
            match List.find_opt (fun t -> t > ct) acks with
            | Some t -> mttrs := (t - ct) :: !mttrs
            | None -> ())
          r.S.crash_times;
        instr := !instr + r.S.wall_instructions;
        ref_instr := !ref_instr + reference.S.wall_instructions;
        words :=
          !words
          + Pass.rio_words (S.checkpointer sched ~tid) ~nprocs
          + Pass.rio_words (Engine.checkpointer t) ~nprocs;
        calls :=
          !calls + Pass.syscalls kernels.(tid) + Pass.syscalls ref_kernels.(tid);
        Printf.bprintf digest "%d %s\n  ref %s\n" tid (Pass.result_line r)
          (Pass.result_line reference))
      results;
    let rs = Array.to_list results in
    let lat = Array.of_list !lats in
    let ms ns = float_of_int ns /. 1e6 in
    let nm = List.length !mttrs in
    let sum f = float_of_int (Pass.isum f rs) in
    let sim =
      [
        ("sim_p50_ms", ms (Ft_exp.Metrics.p50 lat));
        ("sim_p999_ms", ms (Ft_exp.Metrics.p999 lat));
        ( "sim_mttr_ms",
          if nm = 0 then 0. else ms (List.fold_left ( + ) 0 !mttrs) /. float nm
        );
        ( "useful_instr_frac",
          Pass.ratio (float_of_int !ref_instr) (float_of_int !instr) );
      ]
    in
    let counts =
      [
        ("scheduler.steps", float_of_int steps);
        ("engine.runs", float_of_int tenants);
        ("vm.instr", float_of_int (!instr + !ref_instr));
        ("vm.replay_instr", float_of_int (!instr - !ref_instr));
        ( "ckpt.commits",
          sum (fun r -> Array.fold_left ( + ) 0 r.S.commit_counts) );
        ("stablemem.words_written", float_of_int !words);
        ("recovery.crashes", sum (fun r -> r.S.crashes));
        ("recovery.restores", sum (fun r -> r.S.recoveries));
        ("recovery.orphan_rollbacks", sum (fun r -> r.S.orphan_rollbacks));
        ("recovery.aborted_rounds", sum (fun r -> r.S.aborted_rounds));
        ("os.syscalls", float_of_int !calls);
        ( "os.det_high_water",
          float_of_int
            (List.fold_left (fun a r -> max a r.S.det_high_water) 0 rs) );
        ("os.det_forced_flushes", sum (fun r -> r.S.det_forced_flushes));
        ("oracle.checks", float_of_int tenants);
      ]
    in
    List.iter (fun (k, v) -> Printf.bprintf digest "%s %.17g\n" k v) sim;
    {
      Pass.ops = tenants;
      failures = List.rev !failures;
      sim_instr = !instr + !ref_instr;
      mc_nodes = 0;
      sim;
      counts;
      digest = Buffer.contents digest;
      host =
        (fun spans ->
          [
            ( "scheduler.ns_per_step",
              Pass.ratio (Span.total "scheduler.run" spans *. 1e9)
                (float_of_int steps) );
            ( "engine.ns_per_instr",
              Pass.ratio (Span.total "engine.execute" spans *. 1e9)
                (float_of_int !ref_instr) );
          ]);
    }

let workload = { Pass.name = "fleet"; setup }
