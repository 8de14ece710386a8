(** The bounded checker: DFS over every schedule prefix of a program,
    every stop-crash victim, every mid-commit crash and every
    drop-one-message fault at each prefix, three oracles per execution,
    with memoized state hashing and {!Ft_exp}-fanned sharding. *)

type oracle = Invariant | Consistency | Lose_work

val oracle_to_string : oracle -> string

type violation = {
  v_oracle : oracle;
  v_prefix : int list;  (** the schedule: one pid per step *)
  v_crash : Model.crash;
  v_detail : string;  (** one line: what the oracle saw *)
}

type stats = {
  nodes : int;  (** DFS nodes (schedule prefixes) visited *)
  runs : int;  (** complete executions (crash variants included) *)
  memo_hits : int;  (** nodes pruned by the state hash *)
  steps : int;  (** model steps executed, replays included *)
  violations : violation list;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val check_one :
  ?lose_work:bool ->
  spec:Ft_core.Protocol.spec ->
  defect:Model.defect ->
  program:Model.program ->
  prefix:int list ->
  crash:Model.crash ->
  unit ->
  violation list
(** Run the schedule's crash-free execution and, for a fault, the
    faulted one, and judge the latter with every oracle the DFS applies
    to it: Save-work on the crash-free prefix (for [No_crash]), output
    consistency, and — when [lose_work] — the dangerous-path oracle.
    The shrinker's fitness function. *)

val faults : nprocs:int -> Model.run -> Model.crash list
(** Every fault the DFS injects at a node, given the node's crash-free
    run: a stop crash and both nested failures of each victim, both
    mid-commit outcomes when the last step committed, and the loss of
    each in-flight message. *)

val fault_state :
  parent:Model.state -> last:int -> Model.state -> Model.crash -> Model.state
(** [fault_state ~parent ~last st crash] is the state the DFS finishes
    [crash] from at the node whose post-prefix state is [st], reached
    from [parent] by one step of process [last]: a fork of [st], or for
    a [Mid_commit], a fork of [parent] with that step retaken under the
    trap. *)

val check :
  ?no_prune:bool ->
  ?lose_work:bool ->
  ?root:int list ->
  ?stop_depth:int ->
  spec:Ft_core.Protocol.spec ->
  defect:Model.defect ->
  program:Model.program ->
  unit ->
  stats
(** Explores every schedule prefix extending [root] (default: the empty
    prefix).  [stop_depth] checks only prefixes strictly shorter than it
    (used for the shallow shard).  At each node: the Save-work invariant
    on the crash-free prefix trace and the crash-free run's output
    consistency; for each victim a stop crash and the two nested
    failures, plus both mid-commit crash outcomes when the last step
    committed, each checked for output consistency against the surviving
    lineage's reference; for each in-flight message a {!Model.Lose}
    fault, checked for loss transparency (the completed run must
    reproduce the no-loss execution of the same schedule); and, when
    [lose_work] (default true — turn off for mutants), the dangerous-path
    oracle on every crashed execution.  [no_prune] disables the state-hash memo. *)

val defect_to_string : Model.defect -> string
(** The defect's name in job keys and repro headers, e.g. ["skip-orphan"]. *)

val crash_to_string : Model.crash -> string
val crash_of_string : string -> (Model.crash, string) result
val prefix_to_string : int list -> string
(** One decimal digit per pid: only pids 0..9 read back. *)

val prefix_of_string : string -> (int list, string) result

val max_procs : int
(** The most processes a sweep can key: 10, the pids
    {!prefix_to_string} writes one digit each. *)

(** {2 Exp fan-out} *)

val jobs :
  ?no_prune:bool ->
  ?lose_work:bool ->
  ?shard_depth:int ->
  specs:(Ft_core.Protocol.spec * Model.defect) list ->
  program:Model.program ->
  unit ->
  Ft_exp.Job.t list
(** One job per (protocol, shard) plus one shallow job per protocol
    covering the prefixes above the shard boundary.  Job keys encode the
    program digest and bound, so a warm {!Ft_exp.Exp} store resumes an
    interrupted sweep without re-exploring completed shards.
    @raise Invalid_argument above {!max_procs} processes, where two
    shard prefixes would share a key. *)

val stats_of_value : Ft_exp.Jstore.value -> stats option
(** Decode one job's result row back into {!stats}; [None] when any
    field or any violation fails to decode (an unknown oracle name
    included). *)
