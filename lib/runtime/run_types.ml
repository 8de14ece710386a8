(** The run types shared by {!Scheduler} and {!Engine}: one declaration,
    included by both, so the two APIs interoperate by type equality. *)

(** The stateful stages of the recovery path itself, as injection sites
    for nested failures: a process may crash again while any of them is
    mid-flight.  Recovery is idempotent and re-enterable at every stage —
    restores retry from the same checkpoint, incarnation numbers and
    rollback progress persist so a re-crashed victim resumes (not
    restarts) the cascade, and a coordinator that dies mid-round is
    superseded without stranding participants. *)
type recovery_stage =
  | Mid_restore  (** the victim's own restore/replay of its checkpoint *)
  | Mid_cascade  (** the orphan-rollback cascade the crash triggered *)
  | Mid_round  (** coordinating a dependent-commit round *)

type config = {
  protocol : Ft_core.Protocol.spec;
  medium : Checkpointer.medium;
  deadline_ns : int option;  (** stop the run at this simulated time *)
  max_instructions : int;  (** safety net against runaway executions *)
  suppress_faults_on_recovery : bool;
      (** the paper's end-to-end check (§4.1): restore pristine code and
          silence the injector when recovering *)
  max_recovery_attempts : int;
      (** the legacy path's replay budget (the L0 rung when [policy] is
          [None]) and the cap on restore retries at every rung *)
  kills : (int * int) list;  (** (time_ns, pid) stop failures to inject *)
  kill_at_decision : (int * int) list;
      (** (decision_index, pid) stop failures, applied just before the
          scheduler's Nth pick — lets the model-checker cross-check
          enumerate crash points deterministically *)
  pick_override : (int list -> int option) option;
      (** schedule replay hook: given the runnable pids (ascending),
          choose who runs next; [None] (the value or the result) falls
          back to the smallest-local-clock default *)
  heap_words : int;
  stack_words : int;
  page_size : int;
  expand_resources_on_recovery : bool;
      (** §2.6: grow resource limits at reboot, turning fixed ND
          exhaustion results transient *)
  excluded_pages : int -> bool;
      (** §2.6: recomputable heap pages left out of checkpoints; lost at
          recovery *)
  policy : Ft_recovery.Policy.t option;
      (** escalation ladder driving recovery (L0 generic replay, L1 deep
          rollback, L2 perturbed replay); [None] is the legacy
          generic-replay path, byte-identical to the old engine: the
          same ladder on L0 alone, [max_recovery_attempts] replays deep *)
  quarantine : Ft_recovery.Quarantine.params option;
      (** per-tenant crash-loop circuit breaker: [threshold] crashes
          within [window_ns] park the whole tenant until a half-open
          probe (exponential backoff); latching open gives it up as
          [Recovery_failed].  [None] = off *)
  recovery_kills : (recovery_stage * int) list;
      (** injected nested failures: [(stage, n)] crashes the recovering
          (or coordinating) process again at the tenant's [n]th entry
          into that recovery stage.  Crashes during recovery count
          toward the quarantine breaker's sliding window like any
          other crash *)
  det_cap : int;
      (** hard cap on the live determinant count (logging styles): past
          it the store degrades gracefully to a forced
          flush-to-checkpoint of the appending process instead of
          growing unbounded.  [0] = uncapped *)
}

type outcome =
  | Completed  (** every process halted *)
  | Deadline  (** simulated deadline reached *)
  | Recovery_failed  (** a process kept crashing past its last commit *)
  | Deadlocked  (** all processes blocked *)
  | Instruction_budget  (** the [max_instructions] safety net tripped *)
  | Net_unreachable
      (** the attached transport's retry budget ran out (a link gave up,
          or a 2PC round exhausted its presumed-abort retries): the run
          degrades instead of wedging in [Block_recv] *)

(** The outcome as reports and stored records name it. *)
let outcome_name = function
  | Completed -> "completed"
  | Deadline -> "deadline"
  | Recovery_failed -> "recovery-failed"
  | Deadlocked -> "deadlocked"
  | Instruction_budget -> "instruction-budget"
  | Net_unreachable -> "net-unreachable"

type result = {
  outcome : outcome;
  trace : Ft_core.Trace.t;
  visible : int list;  (** values output to the user, in order *)
  sim_time_ns : int;
  wall_instructions : int;
  commit_counts : int array;  (** protocol-triggered commits, per process *)
  nd_counts : int array;
  logged_counts : int array;
  visible_counts : int array;
  recoveries : int;
  crashes : int;
  recovery_crashes : int;
      (** crashes during restore itself; each costs a process-restart
          pause (10 ms times the attempt number) and a retry from the
          same checkpoint *)
  activation : (int * int) option;  (** pid, trace index at activation *)
  first_crash : (int * int) option;  (** pid, trace index of crash event *)
  commit_after_activation : bool;
      (** a commit landed between fault activation and the first crash:
          the Table-1 Lose-work violation criterion *)
  aborted_rounds : int;
      (** 2PC (and dependent-commit) rounds presumed aborted on a
          prepare/commit timeout *)
  orphan_rollbacks : int;
      (** message-logging protocols: survivors rolled back at recovery
          because their dependency vector dominated a crashed process's
          restored one — their state depended on lost non-determinism *)
  visible_times : (int * int * int) list;
      (** (pid, value, local time ns) of each visible output, in order —
          the serve harness turns these into per-request latencies *)
  crash_times : (int * int) list;
      (** (pid, local time ns) of each crash, in order — MTTR
          measurement *)
  deep_rollbacks : int;
      (** L1 recoveries that discarded committed generations (a
          controlled Save-work sacrifice, never a Consistency one) *)
  perturbed_replays : int;  (** L2 recoveries *)
  ladder_peaks : int array;
      (** per process: highest escalation rung used (0 = generic replay
          only, 1 = deep rollback, 2 = perturbed replay) *)
  fault_classes : Ft_recovery.Classifier.verdict array;
      (** per process, from observed replay behavior — [Benign] when it
          never crashed *)
  quarantine_trips : int;
      (** cumulative circuit-breaker trips across the run (crash-loop
          events; 0 without a [quarantine] config) *)
  replay_mismatches : int;
      (** sequenced-egress oracle: replayed visible outputs that
          disagreed with the value already released at that position —
          any nonzero count means recovery broke exactly-once output *)
  nested_crashes : int;
      (** injected crashes that landed during a recovery stage
          ([recovery_kills] entries that fired) *)
  cascade_resumes : int;
      (** orphan cascades resumed from persisted rollback progress after
          the victim re-crashed mid-cascade (resumed, never restarted) *)
  det_high_water : int;
      (** peak live determinant count across the run — the bounded-log
          claim's witness *)
  det_forced_flushes : int;
      (** determinant-cap hits that forced a flush-to-checkpoint *)
}
