(** The multi-tenant scheduler core: the event loop that used to live in
    {!Engine}, factored so one scheduler can step many independent
    application instances ("tenants") against a shared virtual clock.

    A tenant is everything one experiment used to own: its VM processes,
    kernel, checkpointer, nd-since-commit bits, trace, fault bookkeeping
    and recovery budgets.  The scheduler repeatedly picks the tenant
    whose next runnable process has the smallest local clock (ties break
    to the lowest tenant id) and runs exactly one iteration of the
    legacy engine loop for it — so a 1-tenant scheduler performs the
    byte-identical sequence of machine, kernel, checkpointer and RNG
    operations the old engine did, and {!Engine} is now a thin facade
    over it.

    Tenants may share one {!Ft_net.Transport}: each kernel is assigned a
    disjoint global pid range on it ({!Ft_os.Kernel.set_net} with
    [~base]), links never cross tenants, and the per-tenant network
    verdicts (pending frames, earliest event, exhausted retry budgets)
    are answered by the transport's range queries, so a tenant sharing a
    transport reaches the same conclusions it would on a private one.

    The pick is the minimum of an ordered index of live tenants keyed
    by [(next time, tid)], so a step costs a re-key, not a scan of the
    fleet.  A step can move only its own tenant's key and, through the
    transport's pumps and deliveries, the keys of tenants on the same
    transport; only those are re-keyed after it, and the co-tenants
    only when the step moved the transport's queue.  Every key read
    again is thus the one a full rescan would compute, and ordering on
    the pair keeps the lowest-tid tie-break, so each step picks the
    tenant a scan would. *)

type proc = {
  pid : int;
  machine : Ft_vm.Machine.t;
  pristine_code : Ft_vm.Instr.t array;
  mutable time : int;            (* local clock, ns *)
  mutable blocked : bool;        (* waiting for a message *)
  mutable halted : bool;
  mutable failed : bool;         (* unrecoverable *)
  lineage : Ft_recovery.Lineage.t;
      (* attempts, restore point, crash bar, rungs, salt, classifier
         evidence and the output cursor *)
  mutable commit_count : int;    (* protocol-triggered commits *)
  mutable nd_count : int;
  mutable logged_count : int;
}

include Run_types

let default_config =
  {
    protocol = Ft_core.Protocols.cpvs;
    medium = Checkpointer.Reliable_memory;
    deadline_ns = None;
    max_instructions = 2_000_000_000;
    suppress_faults_on_recovery = false;
    max_recovery_attempts = 3;
    kills = [];
    kill_at_decision = [];
    pick_override = None;
    heap_words = 65_536;
    stack_words = 4_096;
    page_size = 64;
    expand_resources_on_recovery = false;
    excluded_pages = (fun _ -> false);
    policy = Ft_recovery.Policy.legacy;
    quarantine = None;
    recovery_kills = [];
    det_cap = 0;
  }

(* Max instructions per scheduling slice. *)
let batch = 256

(* Simulated pause after a kernel panic: a machine reboot. *)
let reboot_delay_ns = 30_000_000_000

(* Pacing between attempts when recovery itself crashes, times the
   attempt number: a process restart, not a machine reboot. *)
let recovery_retry_delay_ns = 10_000_000

(* 2PC prepare/commit timeout: with an unreliable transport attached, an
   unreachable participant makes the coordinator presume abort and retry
   the round after the timeout, doubling per retry, until
   [twopc_max_retries] retries end the run as [Net_unreachable]. *)
let twopc_timeout_ns = 2_000_000
let twopc_max_retries = 8

(* One application instance: the state the legacy engine called [t]. *)
type tenant = {
  tid : int;
  cfg : config;
  kernel : Ft_os.Kernel.t;
  procs : proc array;
  ckpt : Checkpointer.t;
  nd_since : bool array;
      (* per pid, for [Ft_core.Protocol.consult]; cleared at each commit *)
  trace : Ft_core.Trace.t;
  mutable visible_rev : (int * int * int) list;
  mutable crash_rev : (int * int) list;
  mutable instructions : int;
  mutable total_recoveries : int;
  mutable recovery_crashes : int;
  kills_pending : int list array;
      (* per pid, the stop-failure times not yet fired, ascending *)
  mutable decision_kills : (int * int) list;
  mutable decisions : int;  (* scheduling decisions taken so far *)
  mutable activation : (int * int) option;
  mutable on_replay : (int -> salt:int -> unit) option;
      (* called after every restore with the environment salt in
         effect; recurring-fault injectors re-arm here *)
  mutable deep_rollbacks : int;
  mutable perturbed_replays : int;
  breaker : Ft_recovery.Quarantine.t option;
  mutable quarantine_trips : int;
  mutable outcome : outcome option;
  mutable ack_tag : int;  (* synthetic (negative) tags for 2PC acks *)
  mutable round : int;    (* coordinated-commit round counter *)
  mutable aborted_rounds : int;
  mutable orphan_rollbacks : int;
      (* logging styles: survivors rolled back because their state
         causally depended on a crashed process's lost non-determinism *)
  mutable recovery_kills_pending : (recovery_stage * int) list;
  stage_counts : int array;       (* entries into each recovery stage *)
  mutable nested_crashes : int;   (* injected recovery-stage crashes *)
  mutable det_forced_flushes : int;  (* determinant-cap forced commits *)
  mutable cascade_resumes : int;
  mutable cascade_progress : (int * int list) option;
      (* persisted rollback progress: (original victim, worklist of pids
         whose orphan fallout is not yet propagated).  Survives the
         victim's re-crash so a re-entered cascade RESUMES — it never
         restarts from scratch. *)
  mutable result : result option;  (* set once the tenant finishes *)
}

type t = {
  tenants : tenant array;
  mutable live : int;       (* tenants without a result yet *)
  mutable steps : int;      (* scheduling steps taken, all tenants *)
}

let make_tenant tid (cfg, kernel, programs) =
  let nprocs = Array.length programs in
  if nprocs <> Ft_os.Kernel.nprocs kernel then
    invalid_arg "Scheduler.create: kernel sized for a different nprocs";
  let procs =
    Array.mapi
      (fun pid code ->
        {
          pid;
          machine =
            Ft_vm.Machine.create ~stack_size:cfg.stack_words
              ~heap_size:cfg.heap_words ~page_size:cfg.page_size
              (Array.copy code);
          pristine_code = Array.copy code;
          time = 0;
          blocked = false;
          halted = false;
          failed = false;
          lineage =
            Ft_recovery.Lineage.create cfg.policy
              ~l0_attempts:cfg.max_recovery_attempts;
          commit_count = 0;
          nd_count = 0;
          logged_count = 0;
        })
      programs
  in
  (* Deep rollback (rung L1) needs archived generations: enough for
     every L1 attempt to go [l1_depth] further back, plus the current
     one.  Zero (the default) keeps the commit hot path archive-free. *)
  let { Ft_recovery.Policy.l1_attempts; l1_depth; _ } = cfg.policy in
  let history = if l1_attempts > 0 then (l1_depth * l1_attempts) + 1 else 0 in
  let ckpt =
    Checkpointer.create ~excluded:cfg.excluded_pages
      ~page_size:cfg.page_size ~history ~medium:cfg.medium ~nprocs
      ~heap_words:cfg.heap_words ~stack_words:cfg.stack_words ()
  in
  let kills_pending = Array.make nprocs [] in
  List.iter
    (fun (at, pid) ->
      if pid < 0 || pid >= nprocs then
        invalid_arg "Scheduler.create: kill for a pid out of range";
      kills_pending.(pid) <- at :: kills_pending.(pid))
    cfg.kills;
  Array.iteri
    (fun pid ats -> kills_pending.(pid) <- List.sort Int.compare ats)
    kills_pending;
  let tn =
    {
      tid;
      cfg;
      kernel;
      procs;
      ckpt;
      nd_since = Array.make nprocs false;
      trace = Ft_core.Trace.create ~nprocs;
      visible_rev = [];
      crash_rev = [];
      instructions = 0;
      total_recoveries = 0;
      recovery_crashes = 0;
      kills_pending;
      decision_kills = List.sort compare cfg.kill_at_decision;
      decisions = 0;
      activation = None;
      on_replay = None;
      deep_rollbacks = 0;
      perturbed_replays = 0;
      breaker = Option.map Ft_recovery.Quarantine.create cfg.quarantine;
      quarantine_trips = 0;
      outcome = None;
      ack_tag = -1;
      round = 0;
      aborted_rounds = 0;
      orphan_rollbacks = 0;
      recovery_kills_pending = cfg.recovery_kills;
      stage_counts = Array.make 3 0;
      nested_crashes = 0;
      det_forced_flushes = 0;
      cascade_resumes = 0;
      cascade_progress = None;
      result = None;
    }
  in
  (* Message-logging protocols track causality: turn on dependency-vector
     piggybacking (the zero vectors above match checkpoint zero). *)
  if cfg.protocol.Ft_core.Protocol.style <> Ft_core.Protocol.Coordinated then
    Ft_os.Kernel.enable_dependency_tracking kernel;
  Ft_os.Kernel.set_det_cap kernel cfg.det_cap;
  (* "The initial state of any application is always committed" (§4):
     take checkpoint zero for every process, outside protocol counts. *)
  Array.iter
    (fun p ->
      ignore
        (Checkpointer.commit ckpt ~pid:p.pid ~machine:p.machine
           ~kstate:(Ft_os.Kernel.snapshot_kstate kernel p.pid)))
    procs;
  tn

let create ~tenants () =
  if Array.length tenants = 0 then invalid_arg "Scheduler.create: no tenants";
  let tenants = Array.mapi make_tenant tenants in
  { tenants; live = Array.length tenants; steps = 0 }

let steps t = t.steps
let machine t ~tid ~pid = t.tenants.(tid).procs.(pid).machine
let kernel t ~tid = t.tenants.(tid).kernel
let checkpointer t ~tid = t.tenants.(tid).ckpt
let set_on_replay t ~tid f = t.tenants.(tid).on_replay <- Some f

(* Fault injectors mark the moment the injected bug first executes. *)
let record_activation t ~tid pid =
  let tn = t.tenants.(tid) in
  if tn.activation = None then
    tn.activation <- Some (pid, Ft_core.Trace.next_index tn.trace pid)

let activation_recorded t ~tid = t.tenants.(tid).activation <> None

let instr_ns tn = (Ft_os.Kernel.costs tn.kernel).Ft_os.Kernel.instr_ns

(* This tenant's slice of the (possibly shared) transport pid space. *)
let net_range tn =
  let lo = Ft_os.Kernel.net_base tn.kernel in
  (lo, lo + Ft_os.Kernel.nprocs tn.kernel)

(* --- crash and recovery -------------------------------------------------- *)

let record_crash tn (p : proc) =
  tn.crash_rev <- (p.pid, p.time) :: tn.crash_rev;
  ignore (Ft_core.Trace.record tn.trace ~pid:p.pid Ft_core.Event.Crash)

let give_up tn (p : proc) =
  p.failed <- true;
  if tn.outcome = None then tn.outcome <- Some Recovery_failed

let stage_index = function Mid_restore -> 0 | Mid_cascade -> 1 | Mid_round -> 2

(* Count one entry into [stage] and report whether an injected nested
   failure is due at this occurrence. *)
let recovery_crash_due tn stage =
  let i = stage_index stage in
  tn.stage_counts.(i) <- tn.stage_counts.(i) + 1;
  let n = tn.stage_counts.(i) in
  match
    List.partition
      (fun (s, occ) -> s = stage && occ = n)
      tn.recovery_kills_pending
  with
  | [], _ -> false
  | _, keep ->
      tn.recovery_kills_pending <- keep;
      true

(* Feed one crash of [p], at its clock, to the crash-loop breaker (if
   any); a verdict other than [`Ok] counts a quarantine trip. *)
let quarantine_crash tn (p : proc) =
  match tn.breaker with
  | None -> `Ok
  | Some b ->
      ignore (Ft_recovery.Quarantine.probe b ~now_ns:p.time : bool);
      let verdict = Ft_recovery.Quarantine.note_crash b ~now_ns:p.time in
      (match verdict with
      | `Ok -> ()
      | `Latched | `Park_until _ ->
          tn.quarantine_trips <- tn.quarantine_trips + 1);
      verdict

(* A crash that lands during recovery itself is still a crash: count it,
   feed the crash-loop breaker's sliding window (recovery-time crashes
   trip the quarantine just like primary-execution ones), and pace the
   retry with a process-restart pause.  [`Abandon] means the breaker
   latched. *)
let note_recovery_crash tn (p : proc) ~injected ~attempt =
  tn.recovery_crashes <- tn.recovery_crashes + 1;
  if injected then tn.nested_crashes <- tn.nested_crashes + 1;
  p.time <- p.time + (attempt * recovery_retry_delay_ns);
  match quarantine_crash tn p with
  | `Latched -> `Abandon
  | `Park_until until_ns ->
      p.time <- max p.time until_ns;
      `Retry
  | `Ok -> `Retry

(* Prepare the process for a replay attempt: the paper's fault
   suppression and §2.6 resource expansion, shared by every rung. *)
let pre_replay tn (p : proc) =
  if tn.cfg.suppress_faults_on_recovery then begin
    (* The paper's end-to-end check suppresses the fault activation
       during recovery (§4.1): restore pristine code and tell the
       injector to stand down. *)
    Array.blit p.pristine_code 0 p.machine.Ft_vm.Machine.code 0
      (Array.length p.pristine_code);
    p.machine.Ft_vm.Machine.on_execute <- None
  end;
  if tn.cfg.expand_resources_on_recovery then
    Ft_os.Kernel.expand_resources tn.kernel

(* [?out_seq] is a deep rollback's archived output cursor. *)
let finish_restore ?out_seq tn (p : proc) ~kstate ~cost =
  Ft_os.Kernel.rollback tn.kernel p.pid kstate;
  Ft_recovery.Lineage.restored ?out_seq p.lineage
    ~icount:(Ft_vm.Machine.icount p.machine);
  p.time <- p.time + cost;
  p.blocked <- false;
  p.halted <- false

(* A plain restore of the last commit; [false] when it could not be
   carried out.  The restore itself runs on the same fallible machine
   and can be crashed by an injector mid-replay.  Vista recovery is
   idempotent, so retry from the same checkpoint — with a growing
   restart pause — up to the attempt cap, then degrade to
   [Recovery_failed] instead of looping forever. *)
let restore tn (p : proc) =
  let rec go attempt =
    let crashed ~injected =
      match note_recovery_crash tn p ~injected ~attempt with
      | `Abandon -> false
      | `Retry ->
          attempt < tn.cfg.max_recovery_attempts && go (attempt + 1)
    in
    (* Injected nested failure: the machine dies again before this
       restore attempt completes.  Vista recovery is idempotent, so the
       next attempt redoes it from the same checkpoint. *)
    if recovery_crash_due tn Mid_restore then crashed ~injected:true
    else
      match Checkpointer.restore tn.ckpt ~pid:p.pid ~machine:p.machine with
      | kstate, cost ->
          finish_restore tn p ~kstate ~cost;
          true
      | exception Ft_stablemem.Rio.Crash_point _ -> crashed ~injected:false
  in
  go 1

(* Recovery is the escalation ladder.  The attempt index (consecutive
   crashes since the process last committed past its restore point)
   picks the rung; each rung restores *some* committed state —
   Consistency is never traded, only whose work is lost and what
   environment the replay sees.  Rung L0 is [max_recovery_attempts]
   replays deep under every ladder. *)
let recover tn (p : proc) =
  match Ft_recovery.Lineage.next_action p.lineage with
  | Ft_recovery.Policy.Give_up -> give_up tn p
  | action ->
      tn.total_recoveries <- tn.total_recoveries + 1;
      pre_replay tn p;
      let restored =
        match action with
        | Ft_recovery.Policy.Deep_rollback back -> (
            (* Nested-crash discipline: a crash during the rollback's
               own transaction recovers to the pre-rollback generation;
               fall back to a plain restore of it. *)
            match
              Checkpointer.rollback tn.ckpt ~pid:p.pid ~machine:p.machine
                ~back
            with
            | Some (kstate, cost, out_seq) ->
                tn.deep_rollbacks <- tn.deep_rollbacks + 1;
                finish_restore ~out_seq tn p ~kstate ~cost;
                true
            | None ->
                (* Not enough archived generations yet: a plain replay
                   is the deepest rollback available. *)
                restore tn p
            | exception Ft_stablemem.Rio.Crash_point _ -> (
                match note_recovery_crash tn p ~injected:false ~attempt:1 with
                | `Abandon -> false
                | `Retry -> restore tn p))
        | _ -> restore tn p
      in
      if not restored then give_up tn p
      else begin
        (match action with
        | Ft_recovery.Policy.Perturbed_replay { salt } ->
            tn.perturbed_replays <- tn.perturbed_replays + 1;
            Ft_os.Kernel.perturb tn.kernel ~salt
        | _ -> ());
        match tn.on_replay with
        | Some f -> f p.pid ~salt:(Ft_recovery.Lineage.salt p.lineage)
        | None -> ()
      end

(* Orphan detection and re-rollback (message-logging protocols).  After
   a victim is restored to its last commit, a survivor [s] is an orphan
   iff its dependency vector records more of the victim's
   non-determinism than the restored state retains
   ({!Ft_os.Kernel.orphaned}): [s]'s state depends on ND the rollback lost
   (and, under optimistic logging, on determinants that died with the
   volatile log).  Orphans are rolled back to their own last commits,
   and the check cascades from each newly rolled-back process.  It
   terminates after at most one rollback per process: every commit
   co-commits (closure over the vectors) the processes it depends on,
   so no committed state depends on another process's uncommitted ND. *)
(* The cascade's progress is persisted tenant-side ([cascade_progress]:
   the pids whose orphan fallout is not yet propagated), so a victim
   re-crashed mid-cascade RESUMES the cascade rather than restarting it
   — orphans discovered through already-rolled-back intermediates are
   never lost.  Re-entrancy invariant: a pid leaves the persisted
   worklist only after every orphan its rollback exposed has itself been
   rolled back and enqueued, so at any crash point the worklist still
   covers all unpropagated rollbacks. *)
let rec orphan_cascade tn (victim : proc) =
  let worklist = Queue.create () in
  (match tn.cascade_progress with
  | Some (v0, pids) when v0 = victim.pid ->
      tn.cascade_resumes <- tn.cascade_resumes + 1;
      List.iter (fun pid -> Queue.add pid worklist) pids
  | _ -> Queue.add victim.pid worklist);
  let persist () =
    tn.cascade_progress <-
      Some (victim.pid, List.of_seq (Queue.to_seq worklist))
  in
  persist ();
  let superseded = ref false in
  while (not !superseded) && not (Queue.is_empty worklist) do
    let v = tn.procs.(Queue.peek worklist) in
    Array.iter
      (fun s ->
        if
          s.pid <> v.pid && (not s.failed)
          && Ft_os.Kernel.orphaned tn.kernel ~victim:v.pid s.pid
        then begin
          tn.orphan_rollbacks <- tn.orphan_rollbacks + 1;
          if not (restore tn s) then give_up tn s;
          if not s.failed then Queue.add s.pid worklist
        end)
      tn.procs;
    ignore (Queue.pop worklist : int);
    persist ();
    (* Injected nested failure: the victim dies again between cascade
       steps.  It goes through the ordinary crash path, whose recovery
       re-enters this cascade and resumes from the persisted worklist —
       this call is superseded by the re-entrant one. *)
    if recovery_crash_due tn Mid_cascade && not victim.failed then begin
      tn.nested_crashes <- tn.nested_crashes + 1;
      kill_proc tn victim;
      superseded := true
    end
  done;
  if not !superseded then tn.cascade_progress <- None

(* A stop failure: the machine dies where it stands, and the process
   takes the ordinary crash path. *)
and kill_proc tn (p : proc) =
  Ft_vm.Machine.kill p.machine;
  crash_proc tn p

and recover_and_cascade tn (p : proc) =
  recover tn p;
  if (not p.failed) && Ft_os.Kernel.dependency_tracking tn.kernel then
    orphan_cascade tn p

and crash_proc tn (p : proc) =
  record_crash tn p;
  Ft_recovery.Lineage.crash p.lineage ~icount:(Ft_vm.Machine.icount p.machine);
  match quarantine_crash tn p with
  | `Latched -> give_up tn p
  | `Park_until until_ns ->
      (* The breaker took over pacing: restart the ladder so the
         half-open probe gets a fresh budget, recover, then park the
         whole tenant until the probe deadline — it stops burning
         scheduler steps and co-tenants' tail latency survives. *)
      Ft_recovery.Lineage.restart p.lineage;
      recover_and_cascade tn p;
      if not p.failed then
        Array.iter
          (fun q ->
            if (not q.halted) && not q.failed then
              q.time <- max q.time until_ns)
          tn.procs
  | `Ok -> recover_and_cascade tn p

(* --- commits ------------------------------------------------------------ *)

(* Returns [false] when the process crashed partway through the commit
   (and was restored to its last checkpoint): the caller must abandon
   whatever the commit was protecting — the restored machine will replay
   it — rather than keep acting on the pre-crash control flow. *)
let do_local_commit ?round tn (p : proc) =
  match
    Checkpointer.commit ~out_seq:(Ft_recovery.Lineage.out_seq p.lineage)
      tn.ckpt ~pid:p.pid ~machine:p.machine
      ~kstate:(Ft_os.Kernel.snapshot_kstate tn.kernel p.pid)
  with
  | exception Ft_stablemem.Rio.Crash_point _ ->
      (* The process died partway through writing its checkpoint; the
         torn Vista transaction is rolled back by the restore. *)
      kill_proc tn p;
      false
  | cost ->
      p.time <- p.time + cost;
      p.commit_count <- p.commit_count + 1;
      Ft_os.Kernel.commit tn.kernel p.pid ~live:(fun q ->
          let s = tn.procs.(q) in
          (not s.failed) && not s.halted);
      (* Progress means the failure was transient: the lineage starts
         the next crash on a fresh recovery budget, and the breaker
         closes. *)
      if
        Ft_recovery.Lineage.committed p.lineage
          ~icount:(Ft_vm.Machine.icount p.machine)
      then (
        match tn.breaker with
        | Some b ->
            ignore (Ft_recovery.Quarantine.probe b ~now_ns:p.time : bool);
            Ft_recovery.Quarantine.note_progress b
        | None -> ());
      let kind =
        match round with
        | Some r -> Ft_core.Event.Commit_round r
        | None -> Ft_core.Event.Commit
      in
      ignore (Ft_core.Trace.record tn.trace ~pid:p.pid kind);
      tn.nd_since.(p.pid) <- false;
      true

(* One coordinated commit round, shared by two-phase commit and
   dependent commit: the coordinator asks [participants] to commit and
   waits for all acknowledgements.  Time: participants commit after one
   message latency; the coordinator finishes one latency after the last.
   The acknowledgements are recorded in the trace (as logged protocol
   messages) so the participants' commits happen-before whatever the
   coordinator does next — the edge Save-work-orphan relies on.
   [on_participant q ~acked] runs after each participant, whether or not
   its commit survived to acknowledge.

   With an unreliable transport attached, the round is guarded by a
   prepare/commit timeout with presumed-abort: if any participant is
   unreachable (partitioned in either direction, or behind a link whose
   retry budget ran out), nobody commits this round; the coordinator
   waits out the timeout — doubling per retry — and tries again, so a
   healing partition only delays the round.  A round that exhausts its
   retries degrades the run to [Net_unreachable] rather than committing
   unsafely or wedging. *)
let commit_round tn (coordinator : proc) ~participants ~on_participant =
  let latency =
    (Ft_os.Kernel.costs tn.kernel).Ft_os.Kernel.network_latency_ns
  in
  let base = Ft_os.Kernel.net_base tn.kernel in
  let reachable (q : proc) =
    match Ft_os.Kernel.net tn.kernel with
    | None -> true
    | Some net ->
        let now = coordinator.time in
        Ft_net.Transport.reachable net ~src:(base + coordinator.pid)
          ~dst:(base + q.pid) ~now
        && Ft_net.Transport.reachable net ~src:(base + q.pid)
             ~dst:(base + coordinator.pid) ~now
  in
  let run_round () =
    let start = coordinator.time in
    let finish = ref start in
    let round = tn.round in
    tn.round <- round + 1;
    (* participants first, each acknowledging to the coordinator *)
    List.iter
      (fun (q : proc) ->
        q.time <- max q.time (start + latency);
        (* A participant whose commit crashed (and rolled back) never
           acknowledges; the coordinator still commits the others. *)
        let acked = do_local_commit ~round tn q in
        if acked then begin
          let tag = tn.ack_tag in
          tn.ack_tag <- tag - 1;
          ignore
            (Ft_core.Trace.record tn.trace ~pid:q.pid
               (Ft_core.Event.Send { dest = coordinator.pid; tag }));
          ignore
            (Ft_core.Trace.record tn.trace ~pid:coordinator.pid ~logged:true
               (Ft_core.Event.Receive { src = q.pid; tag }));
          if q.time > !finish then finish := q.time
        end;
        on_participant q ~acked)
      participants;
    (* the coordinator commits last, once every ack is in *)
    coordinator.time <- max coordinator.time (!finish + latency);
    do_local_commit ~round tn coordinator
  in
  let rec attempt retries =
    if List.for_all reachable participants then run_round ()
    else begin
      (* presumed abort: no participant prepared, so nothing to undo —
         the round simply never happened *)
      tn.aborted_rounds <- tn.aborted_rounds + 1;
      if retries >= twopc_max_retries then begin
        (* the partition outlived the retry budget: end the run honestly
           instead of wedging or outputting without the commit *)
        coordinator.failed <- true;
        if tn.outcome = None then tn.outcome <- Some Net_unreachable;
        false
      end
      else begin
        coordinator.time <-
          coordinator.time + (twopc_timeout_ns * (1 lsl retries));
        attempt (retries + 1)
      end
    end
  in
  attempt 0

(* Two-phase commit: a round over every live process.  It is not a
   recovery stage — [Mid_round] injections never count or crash it. *)
let do_global_commit tn (coordinator : proc) =
  let participants =
    Array.to_list tn.procs
    |> List.filter (fun q ->
           (not q.halted) && (not q.failed) && q.pid <> coordinator.pid)
  in
  commit_round tn coordinator ~participants
    ~on_participant:(fun _ ~acked:_ -> ())

(* Dependent commit: the asynchronous-logging alternative to a global
   2PC at output commit.  The coordinator is about to execute a visible
   event; instead of committing everybody, it commits exactly the
   processes the output causally depends on, read off the piggybacked
   dependency vectors ({!Ft_os.Kernel.unconfirmed}):

     S0 = { q <> p | dv_p(q) > stable_p(q) }

   where stable_p(q) is p's own confirmed-stable mark — how much of q's
   non-determinism p has verified durable through an earlier
   acknowledged round.  The mark, not q's actual commit state, decides:
   an already-committed dependency is still contacted once, and that
   ack is the happens-before edge that puts its covering commit in the
   output's causal past (which is what the Save-work oracle checks).
   The set is closed transitively using each member's own marks — if
   q's vector shows taint of r beyond q's mark for r, r must co-commit
   too, else a participant's snapshot would capture a dependence on
   unconfirmed ND and a later crash of r would orphan *committed*
   state.  All of S commits under one shared
   round id (participant snapshots may depend on each other in ways no
   ack ordering can serialize; atomic-with covers them), each
   acknowledging to the coordinator; the coordinator commits the same
   round last, so every participant commit happens-before the visible.
   An untainted coordinator with no dependencies commits nothing at
   all — that asynchrony is the entire point of logging protocols.

   Unreachable dependencies are handled exactly like an unreachable 2PC
   participant (the same [commit_round]): presumed abort, doubling
   timeout, degrade to [Net_unreachable] when the retry budget runs
   out. *)
exception Round_superseded

let do_dependent_commit tn (coordinator : proc) =
  let nprocs = Array.length tn.procs in
  let in_set = Array.make nprocs false in
  let rec close pid =
    for q = 0 to nprocs - 1 do
      if
        q <> coordinator.pid
        && (not in_set.(q))
        && (not tn.procs.(q).halted)
        && (not tn.procs.(q).failed)
        && Ft_os.Kernel.unconfirmed tn.kernel ~by:pid q
      then begin
        in_set.(q) <- true;
        close q
      end
    done
  in
  close coordinator.pid;
  match Array.to_list tn.procs |> List.filter (fun q -> in_set.(q.pid)) with
  | [] ->
      (* No remote dependencies: a tainted coordinator makes a plain
         local commit; an untainted one owes nothing before output. *)
      if Ft_os.Kernel.self_tainted tn.kernel coordinator.pid then
        do_local_commit tn coordinator
      else true
  | participants -> (
      let on_participant (q : proc) ~acked =
        (* the ack confirms everything of q's own ND to date is now
           durable; the coordinator's next commit snapshots this
           knowledge, so q is not re-contacted for old taint *)
        if acked then Ft_os.Kernel.confirm tn.kernel ~by:coordinator.pid q.pid;
        (* Injected nested failure: the coordinator dies between
           participants, mid-round. *)
        if recovery_crash_due tn Mid_round then raise Round_superseded
      in
      match commit_round tn coordinator ~participants ~on_participant with
      | committed -> committed
      | exception Round_superseded ->
          (* The coordinator crashed mid-round.  Participants' commits and
             the acks already recorded STAND — commits are never undone, so
             no participant is stranded waiting on an outcome.  The
             coordinator's own stable-mark updates for the dead round were
             not yet committed and revert with its restore; its replay
             re-derives a (smaller) dependency set and runs a fresh round
             that supersedes this one. *)
          tn.nested_crashes <- tn.nested_crashes + 1;
          kill_proc tn coordinator;
          false)

(* Like [do_local_commit], [false] means the committing process crashed
   mid-commit and was restored: abandon the surrounding control flow. *)
let do_commit tn p = function
  | Ft_core.Protocol.Local -> do_local_commit tn p
  | Ft_core.Protocol.Global -> do_global_commit tn p
  | Ft_core.Protocol.Dependent -> do_dependent_commit tn p

(* A kernel panic stops the whole (shared) machine — all of {e this
   tenant's} processes; co-tenants run their own kernels and survive.
   Every process sees a stop failure and is recovered after the reboot.
   The reboot clears the injected kernel fault. *)
let kernel_panic tn =
  Ft_os.Kernel.clear_os_fault tn.kernel;
  let reboot_done =
    Array.fold_left (fun acc p -> max acc p.time) 0 tn.procs
    + reboot_delay_ns
  in
  Array.iter
    (fun p ->
      if (not p.halted) && not p.failed then begin
        Ft_vm.Machine.kill p.machine;
        record_crash tn p;
        p.time <- reboot_done;
        recover tn p
      end)
    tn.procs

(* --- event handling ------------------------------------------------------ *)

let classify_pre ~(sys : Ft_vm.Syscall.t) ~a0 : Ft_core.Protocol.event_info option =
  let open Ft_core in
  match sys with
  | Gettimeofday | Random | Poll_input ->
      Some { Protocol.kind = Event.Nd Event.Transient; loggable = false }
  | Read_input ->
      Some { Protocol.kind = Event.Nd Event.Fixed; loggable = true }
  | Write_output ->
      Some { Protocol.kind = Event.Visible a0; loggable = false }
  | Send ->
      Some { Protocol.kind = Event.Send { dest = a0; tag = -1 };
             loggable = false }
  | Recv | Try_recv ->
      Some { Protocol.kind = Event.Receive { src = -1; tag = -1 };
             loggable = true }
  | Open_file | Write_file ->
      (* ND only on resource-exhaustion failure, which is known post-
         service; the engine re-consults the protocol then. *)
      None
  | Read_file | Close_file | Sigaction | Sleep | Yield -> None

let event_kind_of_served (served : Ft_os.Kernel.served) :
    Ft_core.Event.kind option =
  match served.Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_none -> None
  | Ft_os.Kernel.Ev_nd (c, _) -> Some (Ft_core.Event.Nd c)
  | Ft_os.Kernel.Ev_visible v -> Some (Ft_core.Event.Visible v)
  | Ft_os.Kernel.Ev_send { dest; tag } ->
      Some (Ft_core.Event.Send { dest; tag })
  | Ft_os.Kernel.Ev_receive { src; tag } ->
      Some (Ft_core.Event.Receive { src; tag })

(* Deliver a due timer signal: a transient, unloggable ND event. *)
let maybe_deliver_signal tn (p : proc) =
  if Ft_os.Kernel.poll_signal tn.kernel p.pid ~now:p.time then begin
    let info =
      { Ft_core.Protocol.kind = Ft_core.Event.Nd Ft_core.Event.Transient;
        loggable = false }
    in
    let reaction =
      Ft_core.Protocol.consult tn.cfg.protocol ~nd_since:tn.nd_since
        ~pid:p.pid info
    in
    let survived =
      match reaction.Ft_core.Protocol.commit_before with
      | Some scope -> do_commit tn p scope
      | None -> true
    in
    (* A commit crash restored the machine to its checkpoint: the signal
       delivery belongs to the replay, not to this (dead) control flow. *)
    if survived && Ft_vm.Machine.deliver_signal p.machine then begin
      p.nd_count <- p.nd_count + 1;
      (* An unlogged transient ND event: taints under both logging
         styles, and records a determinant. *)
      ignore (Ft_os.Kernel.note_nd tn.kernel p.pid ~taints:true : bool);
      ignore
        (Ft_core.Trace.record tn.trace ~pid:p.pid
           (Ft_core.Event.Nd Ft_core.Event.Transient));
      match reaction.Ft_core.Protocol.commit_after with
      | Some scope -> ignore (do_commit tn p scope : bool)
      | None -> ()
    end
  end

let handle_syscall tn (p : proc) (sys : Ft_vm.Syscall.t) =
  let m = p.machine in
  Ft_vm.Machine.rewind_syscall m;
  let a0 = m.Ft_vm.Machine.regs.(0) and a1 = m.Ft_vm.Machine.regs.(1) in
  (* Special cases the kernel does not see. *)
  match sys with
  | Ft_vm.Syscall.Sigaction ->
      m.Ft_vm.Machine.signal_handler <- a0;
      p.time <- p.time + (Ft_os.Kernel.costs tn.kernel).Ft_os.Kernel.syscall_ns;
      Ft_vm.Machine.advance_past_syscall m
  | _ -> (
      let pre = classify_pre ~sys ~a0 in
      let reaction =
        match pre with
        | Some info ->
            Ft_core.Protocol.consult tn.cfg.protocol ~nd_since:tn.nd_since
              ~pid:p.pid info
        | None -> Ft_core.Protocol.no_reaction
      in
      let survived =
        match reaction.Ft_core.Protocol.commit_before with
        | Some scope -> do_commit tn p scope
        | None -> true
      in
      (* A crash inside the pre-event commit restored the machine to its
         last checkpoint: the syscall must not be serviced on the restored
         state — the replay will re-issue it from the rewound pc. *)
      if not survived then ()
      else
      match Ft_os.Kernel.service tn.kernel ~pid:p.pid ~now:p.time ~a0 ~a1 sys with
      | Ft_os.Kernel.Panic -> kernel_panic tn
      | Ft_os.Kernel.Block_recv ->
          (* Leave the machine pointing at the Sys instruction; retry when
             a message shows up. *)
          p.blocked <- true
      | Ft_os.Kernel.Served served ->
          p.blocked <- false;
          (match served.Ft_os.Kernel.r0 with
          | Some v -> Ft_vm.Machine.set_reg m 0 v
          | None -> ());
          (match served.Ft_os.Kernel.r1 with
          | Some v -> Ft_vm.Machine.set_reg m 1 v
          | None -> ());
          p.time <- p.time + served.Ft_os.Kernel.cost_ns;
          (match served.Ft_os.Kernel.new_time with
          | Some nt -> p.time <- max p.time nt
          | None -> ());
          (* Events whose ND-ness depends on the result (e.g. disk-full
             write failures) are classified only after servicing; give
             the protocol its chance to react to those now. *)
          let reaction =
            match (pre, served.Ft_os.Kernel.ev) with
            | None, Ft_os.Kernel.Ev_nd (c, loggable) ->
                Ft_core.Protocol.consult tn.cfg.protocol
                  ~nd_since:tn.nd_since ~pid:p.pid
                  { Ft_core.Protocol.kind = Ft_core.Event.Nd c; loggable }
            | _ -> reaction
          in
          let logged =
            reaction.Ft_core.Protocol.log
            &&
            match served.Ft_os.Kernel.ev with
            | Ft_os.Kernel.Ev_nd (_, loggable) -> loggable
            | Ft_os.Kernel.Ev_receive _ -> true
            | _ -> false
          in
          (* A faulty kernel may corrupt process memory through a syscall
             (a bad copyout): flip a bit of a live word, biased towards
             the metadata-rich low heap. *)
          (match served.Ft_os.Kernel.poke with
          | Some seed ->
              let heap = Ft_vm.Machine.heap m in
              let rng = Random.State.make [| seed |] in
              let a = Ft_vm.Memory.pick_live_word heap rng in
              let bit = Random.State.int rng 24 in
              Ft_vm.Memory.write heap a
                (Ft_vm.Memory.read heap a lxor (1 lsl bit))
          | None -> ());
          (* Logged user input must be stable before its effects propagate
             (a synchronous write on DC-disk); logged receives live in the
             kernel's recovery buffer — committed senders regenerate them
             — and cost nothing extra. *)
          (match served.Ft_os.Kernel.ev with
          | Ft_os.Kernel.Ev_nd _ when logged ->
              p.time <- p.time + Checkpointer.log_cost tn.ckpt ~words:4
          | _ -> ());
          let force_flush = ref false in
          (match event_kind_of_served served with
          | Some kind ->
              ignore (Ft_core.Trace.record tn.trace ~pid:p.pid ~logged kind);
              (match kind with
              | Ft_core.Event.Nd _ | Ft_core.Event.Receive _ ->
                  p.nd_count <- p.nd_count + 1;
                  if logged then p.logged_count <- p.logged_count + 1;
                  (* Logging styles: every ND event records a determinant
                     (bounded store, GC'd at commits); tainting ND
                     additionally advances the process's own
                     dependency-vector component (causal logging exempts
                     logged determinants — they are causally replicated;
                     optimistic logging taints regardless — the volatile
                     log dies with the process). *)
                  if
                    Ft_os.Kernel.note_nd tn.kernel p.pid
                      ~taints:
                        (Ft_core.Protocol.taints
                           tn.cfg.protocol.Ft_core.Protocol.style ~logged
                           kind)
                  then force_flush := true
              | Ft_core.Event.Visible v ->
                  (* Sequenced egress: a replayed output below the
                     released cursor is absorbed by the channel — the
                     outside world already has it — but it must agree
                     with the value that was released, or the recovery
                     machinery broke exactly-once output. *)
                  if Ft_recovery.Lineage.output p.lineage v then
                    tn.visible_rev <- (p.pid, v, p.time) :: tn.visible_rev
              | _ -> ())
          | None -> ());
          Ft_vm.Machine.advance_past_syscall m;
          (* The machine is already past the syscall: a crash in the
             post-event commit just restores and replays from there. *)
          (match reaction.Ft_core.Protocol.commit_after with
          | Some scope -> ignore (do_commit tn p scope : bool)
          | None -> ());
          (* Determinant-log hard cap: degrade gracefully by forcing a
             flush-to-checkpoint of the appending process — its commit
             retires its own uncommitted log and unblocks the GC for
             logs its taint was pinning — instead of growing unbounded.
             The machine is past the syscall, so a crash inside the
             forced commit replays from there. *)
          if !force_flush && (not p.halted) && not p.failed then begin
            tn.det_forced_flushes <- tn.det_forced_flushes + 1;
            ignore (do_local_commit tn p : bool)
          end)

(* --- scheduling ---------------------------------------------------------- *)

let runnable tn (p : proc) =
  (not p.halted) && (not p.failed)
  && ((not p.blocked) || Ft_os.Kernel.mailbox_nonempty tn.kernel p.pid)

(* Apply a due kill-list entry, skipping processes already halted or
   failed. *)
let kill_due tn pid =
  let p = tn.procs.(pid) in
  if (not p.halted) && not p.failed then kill_proc tn p

let pick tn =
  (* deterministic stop failures keyed by scheduling-decision index:
     applied before the pick, so the kill changes this decision's
     runnable set.  The list is sorted, so the due entries are a
     prefix. *)
  let rec kill_due_decisions () =
    match tn.decision_kills with
    | (d, pid) :: later when d <= tn.decisions ->
        tn.decision_kills <- later;
        kill_due tn pid;
        kill_due_decisions ()
    | _ -> ()
  in
  kill_due_decisions ();
  let best = ref None in
  Array.iter
    (fun p ->
      if runnable tn p then
        match !best with
        | Some q when q.time <= p.time -> ()
        | _ -> best := Some p)
    tn.procs;
  match !best with
  | None -> None
  | Some _ as default ->
      tn.decisions <- tn.decisions + 1;
      (match tn.cfg.pick_override with
      | None -> default
      | Some f -> (
          let candidates =
            Array.to_list tn.procs |> List.filter (runnable tn)
            |> List.map (fun p -> p.pid)
          in
          match f candidates with
          | Some pid when List.mem pid candidates -> Some tn.procs.(pid)
          | _ -> default))

(* Move the prefix of [ats] (one process's ascending kill times) that
   is due at [now] onto [acc] as [(time, pid)] entries. *)
let rec take_due pid now acc = function
  | at :: later when at <= now -> take_due pid now ((at, pid) :: acc) later
  | later -> (acc, later)

(* Fire the stop failures that came due at the processes' own clocks.
   The whole due set is decided before any of it fires (a kill can move
   other clocks: a quarantine park, an orphan cascade), then fired in
   [(time, pid)] order.  A halted process keeps its kills, since a
   restore can clear [halted]; a failed one's due kills are dropped by
   [kill_due].  A step with nothing due only reads each list's head. *)
let apply_due_kills tn =
  let due = ref [] in
  for pid = 0 to Array.length tn.procs - 1 do
    let p = tn.procs.(pid) in
    match tn.kills_pending.(pid) with
    | at :: _ as ats when at <= p.time && not p.halted ->
        let acc, later = take_due pid p.time !due ats in
        due := acc;
        tn.kills_pending.(pid) <- later
    | _ -> ()
  done;
  match !due with
  | [] -> ()
  | due -> List.iter (fun (_, pid) -> kill_due tn pid) (List.sort compare due)

let past_deadline tn (p : proc) =
  match tn.cfg.deadline_ns with Some d -> p.time >= d | None -> false

(* Run one scheduling slice of process [p]. *)
let slice tn (p : proc) =
  maybe_deliver_signal tn p;
  let m = p.machine in
  let executed = Ft_vm.Machine.step_n m batch in
  tn.instructions <- tn.instructions + executed;
  p.time <- p.time + (executed * instr_ns tn);
  match Ft_vm.Machine.status m with
  | Ft_vm.Machine.Running -> ()
  | Ft_vm.Machine.Halted ->
      (* Completion is progress too: reaching Halt after a crash means
         the rescue was real — record it, or the classifier mistakes a
         perturbed-replay squeak-through for a Bohrbug. *)
      Ft_recovery.Lineage.halted p.lineage ~icount:(Ft_vm.Machine.icount m);
      p.halted <- true
  | Ft_vm.Machine.Crashed _ -> crash_proc tn p
  | Ft_vm.Machine.Need_syscall sys -> handle_syscall tn p sys

let finished tn =
  Array.for_all (fun p -> p.halted || p.failed) tn.procs

let result_of tn outcome =
  let arr f = Array.map f tn.procs in
  let visible_times = List.rev tn.visible_rev in
  {
    outcome;
    trace = tn.trace;
    visible = List.map (fun (_, v, _) -> v) visible_times;
    sim_time_ns = Array.fold_left (fun acc p -> max acc p.time) 0 tn.procs;
    wall_instructions = tn.instructions;
    commit_counts = arr (fun p -> p.commit_count);
    nd_counts = arr (fun p -> p.nd_count);
    logged_counts = arr (fun p -> p.logged_count);
    visible_counts = arr (fun p -> Ft_recovery.Lineage.released p.lineage);
    recoveries = tn.total_recoveries;
    crashes = List.length tn.crash_rev;
    recovery_crashes = tn.recovery_crashes;
    activation = tn.activation;
    aborted_rounds = tn.aborted_rounds;
    orphan_rollbacks = tn.orphan_rollbacks;
    visible_times;
    crash_times = List.rev tn.crash_rev;
    deep_rollbacks = tn.deep_rollbacks;
    perturbed_replays = tn.perturbed_replays;
    ladder_peaks = arr (fun p -> Ft_recovery.Lineage.peak_rung p.lineage);
    fault_classes = arr (fun p -> Ft_recovery.Lineage.classify p.lineage);
    quarantine_trips = tn.quarantine_trips;
    replay_mismatches =
      Array.fold_left
        (fun n p -> n + Ft_recovery.Lineage.mismatches p.lineage)
        0 tn.procs;
    nested_crashes = tn.nested_crashes;
    cascade_resumes = tn.cascade_resumes;
    det_high_water = Ft_os.Kernel.det_high_water tn.kernel;
    det_forced_flushes = tn.det_forced_flushes;
  }

(* Fire transport events up to this tenant's most advanced live local
   clock.  On a shared transport this may fire a co-tenant's events a
   little "early" in wall order; arrivals are stamped with their own
   delivery time and receivers advance on consume, so nothing observable
   moves (the same argument that lets a slow receiver's frames land
   early on a private transport). *)
let pump_net tn =
  match Ft_os.Kernel.net tn.kernel with
  | None -> ()
  | Some net ->
      let now =
        Array.fold_left
          (fun acc p -> if p.halted || p.failed then acc else max acc p.time)
          0 tn.procs
      in
      Ft_net.Transport.pump net ~now

(* --- the scheduler loop -------------------------------------------------- *)

let finish t tn outcome =
  tn.result <- Some (result_of tn outcome);
  t.live <- t.live - 1

(* One iteration of the legacy engine loop for tenant [tn]: exactly the
   operations (and order) `Engine.run`'s `loop ()` body performed, so a
   1-tenant scheduler is step-identical to the old engine. *)
let step t tn =
  t.steps <- t.steps + 1;
  apply_due_kills tn;
  pump_net tn;
  if tn.instructions > tn.cfg.max_instructions then
    finish t tn Instruction_budget
  else if finished tn then
    finish t tn
      (match tn.outcome with
      | Some o -> o
      | None ->
          if Array.exists (fun p -> p.failed) tn.procs then Recovery_failed
          else Completed)
  else
    match pick tn with
    | None -> (
        (* Nobody is runnable.  If the network still holds events of
           ours — frames in flight, pending retries — the world can
           move: advance simulated time to the next event and pump.
           Only a quiet network is a verdict: a link that exhausted its
           retry budget while a receiver blocks is [Net_unreachable]
           (graceful degradation, §2.6 spirit); otherwise the processes
           deadlocked all by themselves. *)
        let lo, hi = net_range tn in
        let net = Ft_os.Kernel.net tn.kernel in
        match
          (net, Option.bind net (Ft_net.Transport.next_event_in ~lo ~hi))
        with
        | Some _, Some at
          when (match tn.cfg.deadline_ns with
               | Some d -> at >= d
               | None -> false) ->
            finish t tn Deadline
        | Some net, Some at -> Ft_net.Transport.pump net ~now:at
        | Some net, None
          when Ft_net.Transport.any_failed_in net ~lo ~hi
               && Array.exists
                    (fun p -> p.blocked && (not p.halted) && not p.failed)
                    tn.procs ->
            finish t tn Net_unreachable
        | _ ->
            (* A verdict stored before the rest of the system drained — a
               2PC round that exhausted its presumed-abort retries, or a
               recovery ladder that gave up — is the honest one, not
               Deadlocked. *)
            finish t tn (Option.value tn.outcome ~default:Deadlocked))
    | Some p ->
        if past_deadline tn p then finish t tn Deadline
        else slice tn p

(* The tenant's position on the shared virtual clock: the smallest local
   clock among its runnable processes, or the earliest network event
   that could unblock it.  A tenant with neither can only conclude —
   schedule it immediately so its verdict is not delayed. *)
let tenant_next_time tn =
  let best = ref max_int in
  Array.iter
    (fun p -> if runnable tn p && p.time < !best then best := p.time)
    tn.procs;
  if !best < max_int then !best
  else
    match Ft_os.Kernel.net tn.kernel with
    | Some net ->
        let lo, hi = net_range tn in
        (match Ft_net.Transport.next_event_in net ~lo ~hi with
        | Some at -> at
        | None -> min_int)
    | None -> min_int

(* Live tenants in an array binary min-heap ordered by [(key, tid)]: the
   minimum is the tenant furthest behind on the virtual clock, ties to
   the lowest tid.  Indexed by tid so a key can move in place, and
   allocation-free, so a step leaves no garbage behind. *)
type index = {
  heap : int array;  (* tids, heap-ordered *)
  slot : int array;  (* tid -> its position in [heap] *)
  key : int array;   (* tid -> its [tenant_next_time] *)
  mutable size : int;
}

let before ix a b =
  ix.key.(a) < ix.key.(b) || (ix.key.(a) = ix.key.(b) && a < b)

let swap ix i j =
  let a = ix.heap.(i) and b = ix.heap.(j) in
  ix.heap.(i) <- b;
  ix.heap.(j) <- a;
  ix.slot.(b) <- i;
  ix.slot.(a) <- j

let rec sift_up ix i =
  let parent = (i - 1) / 2 in
  if i > 0 && before ix ix.heap.(i) ix.heap.(parent) then begin
    swap ix i parent;
    sift_up ix parent
  end

let rec sift_down ix i =
  let l = (2 * i) + 1 in
  if l < ix.size then begin
    let c =
      if l + 1 < ix.size && before ix ix.heap.(l + 1) ix.heap.(l) then l + 1
      else l
    in
    if before ix ix.heap.(c) ix.heap.(i) then begin
      swap ix i c;
      sift_down ix c
    end
  end

let index_add ix tid k =
  ix.key.(tid) <- k;
  ix.heap.(ix.size) <- tid;
  ix.slot.(tid) <- ix.size;
  ix.size <- ix.size + 1;
  sift_up ix (ix.size - 1)

let index_rekey ix tid k =
  let old = ix.key.(tid) in
  ix.key.(tid) <- k;
  if k < old then sift_up ix ix.slot.(tid) else sift_down ix ix.slot.(tid)

let index_remove ix tid =
  let i = ix.slot.(tid) in
  ix.size <- ix.size - 1;
  if i < ix.size then begin
    let last = ix.heap.(ix.size) in
    swap ix i ix.size;
    sift_up ix i;
    sift_down ix ix.slot.(last)
  end

(* For each tenant, the tenants whose keys one of its steps can move:
   itself, or every tenant on its transport ([==]) — a pump can deliver
   into a co-tenant's mailbox or fire its link events.  Tenants on one
   transport share one array. *)
let rekey_groups t =
  let shared = ref [] in
  let group net =
    match List.assq_opt net !shared with
    | Some g -> g
    | None ->
        let on_net u =
          match Ft_os.Kernel.net u.kernel with
          | Some n -> n == net
          | None -> false
        in
        let g =
          Array.of_seq (Seq.filter on_net (Array.to_seq t.tenants))
        in
        shared := (net, g) :: !shared;
        g
  in
  Array.map
    (fun tn ->
      match Ft_os.Kernel.net tn.kernel with
      | None -> [| tn |]
      | Some net -> group net)
    t.tenants

(* The transport generation a step of [tn] can move, if it has one. *)
let net_generation tn =
  match Ft_os.Kernel.net tn.kernel with
  | Some net -> Ft_net.Transport.generation net
  | None -> 0

(* The index and the groups are built here, not in [create]: transports
   may be attached between the two calls.  A tenant with a result
   leaves.  After each step, with more than one tenant live, the
   stepped tenant is re-keyed, and its whole group too if the step
   moved their transport's queue: a queue the step left alone fired
   nothing, so no co-tenant's mailbox or next event moved.  With one
   tenant live the pick is forced and no key is read again. *)
let run t =
  let groups = rekey_groups t in
  let n = Array.length t.tenants in
  let ix =
    {
      heap = Array.make n 0;
      slot = Array.make n 0;
      key = Array.make n 0;
      size = 0;
    }
  in
  Array.iter
    (fun tn ->
      if Option.is_none tn.result then
        index_add ix tn.tid (tenant_next_time tn))
    t.tenants;
  let rekey tn =
    if Option.is_none tn.result then begin
      let k = tenant_next_time tn in
      if k <> ix.key.(tn.tid) then index_rekey ix tn.tid k
    end
  in
  let rec drive () =
    if t.live = 0 then Array.map (fun tn -> Option.get tn.result) t.tenants
    else begin
      let tn = t.tenants.(ix.heap.(0)) in
      let gen = net_generation tn in
      step t tn;
      (* only a tenant's own step can finish it *)
      if Option.is_some tn.result then index_remove ix tn.tid;
      if ix.size > 1 then
        if net_generation tn = gen then rekey tn
        else Array.iter rekey groups.(tn.tid);
      drive ()
    end
  in
  drive ()
