(** The model checker's small-scope execution model.

    A {e program} is a per-process array of abstract operations over
    the event alphabet of {!Ft_core.Event}; {!Script} gives a program
    and a schedule a replayable text form.  The executor runs
    one interleaving (a {e schedule prefix}) under a protocol, optionally
    injects a single stop failure — between steps or in the middle of a
    commit, with Vista's all-or-nothing semantics — performs recovery
    (rollback of the victim to its last commit, cascading to processes
    holding messages the rollback un-sends), and completes the run with
    a canonical round-robin schedule.

    Values are {e lineages}: every non-deterministic draw feeds an
    accumulator hash per process, message payloads carry the sender's
    accumulator, and visible values mix the emitter's accumulator — so
    any lost-and-redrawn non-determinism that leaks into output is
    detectable by {!Ft_core.Consistency.check} against the surviving
    lineage's reference run. *)

type op =
  | Internal
  | Nd of Ft_core.Event.nd_class * bool  (** class, loggable *)
  | Visible
  | Send of int  (** destination pid *)
  | Receive

type program = op array array  (** [program.(pid).(pc)] *)

val default_program : nprocs:int -> depth:int -> program
(** A deterministic mix covering every operation class, with message
    traffic in both directions and ND events ahead of visibles and
    sends (the Save-work danger patterns). *)

val program_digest : program -> string

(** Defects of the {e runtime} layers (commit machinery, logger,
    publisher) under which a protocol executes; the protocol itself can
    additionally be mutated via its {!Ft_core.Protocol.spec}. *)
type defect =
  | Honest
  | Skip_orphan  (** 2PC participants never commit; only the coordinator *)
  | Drop_log  (** log writes are lost: replay of a logged event redraws *)
  | Publish_first
      (** visible output is published before the protocol's pre-visible
          commit instead of after it *)
  | No_retransmit
      (** the network stack never retransmits: a {!Lose} fault is never
          repaired, the link falls permanently silent past the hole *)
  | Drop_dv
      (** piggybacked dependency vectors are never merged at receives:
          the logging protocols' commit and orphan machinery runs blind
          to cross-process causality *)
  | No_orphan_kill
      (** recovery restores only the crashed process and never rolls
          back orphans — survivors whose state depends on the victim's
          lost non-determinism keep running on a dead lineage *)
  | Resume_from_scratch
      (** a recovery re-entered after a nested mid-cascade crash
          restarts the orphan scan from the victim alone instead of
          resuming the persisted worklist — orphans reachable only
          through intermediates already rolled back (whose restored
          state no longer advertises the taint) survive *)
  | Gc_live_determinant
      (** the determinant GC retires any log entry its owner has
          {e executed} past instead of any its owner has {e committed}
          past: a bystander's commit drops an entry a future replay
          still needs, and the replay redraws *)
  | Commit_budget
      (** the commit machinery honours the commit requests of only the
          first two reactions that make any, for the whole run, and
          drops every later one: once the budget is spent, ND runs
          uncommitted *)

(** The stage of the recovery path a nested failure lands in.  (The
    third stage, a crash while coordinating a dependent-commit round,
    is the existing {!Mid_commit} enumeration: the round is Vista-atomic
    and either all lands or none does.) *)
type nstage =
  | NRestore  (** during the victim's own restore/replay *)
  | NCascade  (** after the first orphan-cascade step has been processed *)

(** The single injected fault. *)
type crash =
  | No_crash
  | Stop of int  (** victim pid; crashes after the prefix completes *)
  | Mid_commit of { landed : bool }
      (** the process scheduled by the last prefix step crashes inside
          that step's commit: [landed] selects the Vista-atomic outcome
          (the whole commit is durable, or none of it) *)
  | Lose of { src : int; dst : int; seq : int }
      (** the network drops one in-flight message after the prefix.  An
          honest runtime's retransmission repairs it (the run is
          identical to [No_crash]); under {!No_retransmit} the payload
          is gone for good and the receiver eventually skips *)
  | Nested of { victim : int; stage : nstage }
      (** the victim crashes after the prefix and then crashes {e
          again} while its own recovery is mid-flight.  Honest recovery
          is idempotent and re-enterable: a re-crashed restore redoes
          itself from the same snapshot, and a re-crashed cascade
          resumes from its persisted worklist — never restarts *)

type run = {
  trace : Ft_core.Trace.t;  (** everything executed, crash included *)
  prefix_trace : Ft_core.Trace.t;
      (** the crash-free prefix alone: the Save-work invariant must hold
          on it — this is the state of the world at the crash instant *)
  observed : int list;  (** visible values, in order, across the crash *)
  reference : int list Lazy.t;
      (** visible values of the surviving lineage's failure-free run,
          built when first forced *)
  commit_pcs : (int * int) list;  (** (pid, pc at commit), run order *)
  crash_pc : (int * int) option;  (** (victim, pc when it crashed) *)
  last_step_committed : bool;
      (** the final prefix step performed at least one commit: tells the
          checker whether [Mid_commit] variants exist at this node *)
  prefix_bindings : ((int * int) * (int * int) option) list;
      (** receive bindings as of the crash instant: (pid, pc) ->
          (src, seq), [None] for a receive that found nothing pending;
          aligned with [prefix_trace] — what the dangerous-path
          classification of the pre-crash world must be computed from *)
  pending : (int * int * int) list;
      (** in-flight messages at the end of the prefix — (src, dst, seq)
          sent but not yet consumed: the {!Lose} candidates the checker
          enumerates at this node *)
  logged_pcs : (int * int) list;
      (** (pid, pc) whose result the recovery system actually logged *)
  next_pids : int list;
      (** schedule choices after the prefix: processes that can make
          progress, or, at quiescence, the blocked ones (whose next step
          is the deterministic skip of their receive) *)
  steps : int;  (** total step executions, replay included *)
}

val run :
  spec:Ft_core.Protocol.spec ->
  defect:defect ->
  program:program ->
  prefix:int list ->
  crash:crash ->
  run
(** Executes [prefix] (a pid per step; scheduling a finished process is
    ignored, scheduling a blocked one is a no-op except at quiescence,
    where its receive deterministically resolves to a skip), injects
    [crash], recovers, and completes every process's script round-robin.
    Deterministic.  The same as {!start}, one {!advance} per prefix step
    (the last one trapped for a [Mid_commit] crash), then {!finish}. *)

(** {2 Step by step}

    A run is [start], one [advance] per schedule step, then [finish].
    Between them a state can be {!fork}ed, so executions that share a
    schedule prefix execute it once. *)

type state
(** A mutable machine state part-way through a run. *)

val start :
  spec:Ft_core.Protocol.spec -> defect:defect -> program:program -> state
(** The initial state: every process at pc 0, committed. *)

val advance : state -> ?trap:bool -> int -> unit
(** One prefix step of the given process.  With [trap], the process
    crashes inside this step's commit, which lands ([true]) or does not
    ([false]); a crashed state ignores further steps. *)

val fork : state -> state
(** An independent copy: advancing or finishing either leaves the other
    unchanged.  It copies the state's arrays and trace and shares its
    tables, which are persistent. *)

val state_key : state -> string
(** Digest of everything the state's future can depend on; equal keys
    are merged by the checker's memo. *)

val crash_free_steps : state -> int
(** [(finish (fork st) No_crash).steps], without executing anything:
    the steps taken so far plus one per op every process has left.  For
    a state whose steps took no trapped commit. *)

val finish : state -> crash -> run
(** Injects [crash] after the steps taken so far (a [Mid_commit] needs
    the trapped last step), recovers, completes the run and returns it.
    The state must not be used afterwards. *)

