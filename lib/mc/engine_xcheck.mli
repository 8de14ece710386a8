(** Model-checker cross-validation against the real runtime.

    The abstract checker ({!Checker}) explores the protocol space over
    an abstract executor; this module closes the loop by driving the
    {e real} engine — VM machines, kernel, checkpointer, rollback and
    replay — through an enumerated space of schedules (via the engine's
    [pick_override] hook) and crash points (via [kill_at_decision]),
    checking the same three end-to-end properties on every run: the run
    completes, the Save-work invariant holds on its trace, and its
    visible output is consistent with the kill-free reference.

    The driver program is a value-deterministic two-process ping-pong
    (all non-determinism is in message receives, which the protocols
    log or commit), so the kill-free run is the unique failure-free
    lineage and output consistency is exact. *)

type stats = {
  x_runs : int;  (** engine executions performed *)
  x_kills : int;  (** executions that actually injected a stop failure *)
  x_failures : string list;  (** one line per failed check *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val ping_pong : rounds:int -> Ft_vm.Instr.t array array
(** The driver: p0 mixes an accumulator, sends it to p1, adds p1's
    reply and prints; p1 doubles-and-offsets each request.  Only p0
    emits visible output, so the visible order is schedule-independent. *)

val check :
  ?rounds:int ->
  ?sched_depth:int ->
  ?kill_decisions:int ->
  spec:Ft_core.Protocol.spec ->
  unit ->
  stats
(** Every schedule-override string of length [sched_depth] (default 4)
    over both pids, each run kill-free and with one stop failure at
    every scheduling decision [0, kill_decisions) (default 10) for each
    victim. *)

val jobs :
  ?rounds:int ->
  ?sched_depth:int ->
  ?kill_decisions:int ->
  specs:Ft_core.Protocol.spec list ->
  unit ->
  Ft_exp.Job.t list
(** One resumable job per protocol. *)

val stats_of_value : Ft_exp.Jstore.value -> stats option
(** Decode one job's result row; [None] when any field fails to. *)
