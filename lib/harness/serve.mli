(** Serve: the fleet-scale serving campaign — hundreds to thousands of
    postgres tenants sharded over {!Ft_runtime.Scheduler} instances
    under continuous seeded fault injection (Poisson kills, optional
    netstorm weather on a shard-shared transport), reporting the
    operator's view: exact p50/p99/p999 request latency against an
    open-loop arrival schedule, goodput, useful work per unit cost
    (Dwork–Halpern–Waarts), and MTTR after each crash.  Oracle-checked:
    per-tenant Consistency against a fault-free reference and the
    visible half of Save-work.  Shards are pure {!Ft_exp.Exp} jobs, so
    serial and [-j N] campaigns are byte-identical. *)

type params = {
  procs : int;  (** tenant instances in the fleet *)
  requests : int;  (** total queries, fleet-wide *)
  crash_rate : float;
      (** expected kills per tenant per simulated second *)
  storm : Netstorm.point option;
      (** weather on the shard-shared transport (loss/dup/reorder) *)
  seed : int;
  shard_size : int;  (** tenants per scheduler/job *)
  interval_ns : int;  (** open-loop arrival interval per tenant *)
  keyspace : int;
  check_every : int;  (** postgres sanity-check cadence *)
  poison : int;
      (** crash-looping tenants: the first [poison] tenants carry a
          deterministic Bohrbug (a wild jump on the hot path) that every
          generic replay re-executes, and the per-tenant quarantine
          circuit breaker is armed fleet-wide — the breaker parks the
          loopers while healthy tenants' tail latency stays bounded *)
  recovery_crash_rate : float;
      (** expected nested failures per tenant per campaign: crashes
          injected into the recovery path itself (mid-restore,
          mid-cascade, mid-commit-round) via {!Ft_faults.Recovery_plan} *)
  det_cap : int;
      (** hard cap on live determinants per tenant (0 = uncapped);
          past it the kernel forces a flush instead of growing the log *)
}

val default_params : params

val smoke_params : params
(** Small, fast, still multi-shard: the CI gate. *)

val queries_per_tenant : params -> int

val fleet :
  ?protocol:Ft_core.Protocol.spec ->
  ?crash_rate:float ->
  tenants:int ->
  queries_per_tenant:int ->
  seed:int ->
  unit ->
  Ft_runtime.Scheduler.t
(** A ready-to-run in-process multi-tenant scheduler over the serve
    workload — the bench micros time {!Ft_runtime.Scheduler.run} on
    it. *)

val jobs :
  ?protocols:Ft_core.Protocol.spec list -> params -> Ft_exp.Job.t list
(** One job per (protocol, shard); each steps its tenants in one
    scheduler and runs the per-tenant fault-free references. *)

type proto_summary = {
  s_protocol : string;
  s_tenants : int;
  s_requests : int;
  s_acked : int;  (** distinct requests acknowledged *)
  s_crashes : int;
  s_recoveries : int;
  s_failed : int;  (** tenants that did not complete *)
  s_sim_ns : int;  (** fleet wall: max tenant sim time *)
  s_instr : int;
  s_ref_instr : int;
  s_p50_ns : int;
  s_p99_ns : int;
  s_p999_ns : int;  (** exact nearest-rank latency percentiles *)
  s_mttr_count : int;
  s_mttr_mean_ns : int;
  s_mttr_max_ns : int;
  s_goodput : float;  (** acked requests per simulated second *)
  s_work_per_minstr : float;
      (** acked requests per million instructions executed — replay is
          waste, so this is the work-per-unit-cost ranking metric *)
  s_overhead : float;  (** instructions vs the fault-free reference *)
  s_quarantined : int;  (** tenants the circuit breaker parked *)
  s_crash_loop_events : int;  (** breaker trips across the fleet *)
  s_nested_crashes : int;  (** crashes that landed inside recovery *)
  s_cascade_resumes : int;
      (** rollback cascades resumed from persisted progress rather than
          restarted after a nested crash *)
  s_det_high_water : int;  (** peak live determinants, any tenant *)
  s_det_forced_flushes : int;  (** cap-triggered flushes, fleet-wide *)
  s_mttr_nested_count : int;
  s_mttr_nested_mean_ns : int;
      (** repair time of tenants whose recovery path itself crashed *)
  s_bad : string list;  (** oracle violations *)
}

type report = {
  params : params;
  summaries : proto_summary list;
  missing : string list;
}

val clean : report -> bool
(** No oracle violations and no missing shards. *)

val of_records :
  ?protocols:Ft_core.Protocol.spec list ->
  params ->
  (string -> Ft_exp.Jstore.value option) ->
  report

val run :
  ?workers:int ->
  ?out_dir:string ->
  ?fresh:bool ->
  ?quiet:bool ->
  ?protocols:Ft_core.Protocol.spec list ->
  params ->
  report
(** The campaign.  With [out_dir], runs as a named resumable store
    sweep ([serve.jsonl]); without, evaluates in memory. *)

val render : report -> string

val bench_kv : report -> (string * Ft_exp.Jstore.value) list
(** [serve_<protocol>_{p50_ns,p99_ns,p999_ns,goodput,mttr_ns,
    work_per_minstr,quarantined_tenants,crash_loop_events,
    nested_crashes,det_high_water,det_forced_flushes}] pairs, plus the
    fleet-level [serve_mttr_nested_ns] (mean repair time pooled over
    tenants whose recovery path itself crashed). *)
