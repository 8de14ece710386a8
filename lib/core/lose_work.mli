(** The Lose-work invariant (paper §2.5, §4): application-generic
    recovery from propagation failures is possible iff no commit lands
    on a dangerous path.  These checkers judge a recorded trace; the
    graph-based coloring is {!Dangerous_paths}. *)

type analysis = {
  crash : Event.t;
  bohrbug : bool;
      (** no transient ND event precedes the crash: the dangerous path
          reaches the initial (always committed) state *)
  dangerous_from : int;  (** first event index on the dangerous path *)
  commits_on_path : Event.t list;
  violated : bool;
}

val analyze : Trace.t -> crash:Event.t -> analysis
(** Analyze the crashed process's linear history: the dangerous suffix
    starts just after the last transient ND event before the crash
    (committing before that event is safe, Figure 6B). *)

val committed_after_activation : Trace.t -> activation:int * int -> bool
(** The Table-1 criterion (§4.1): [committed_after_activation trace
    ~activation:(pid, index)] holds when a [Commit] or [Commit_round] of
    [pid] with index at least [index] was recorded before the trace's
    first [Crash] (of any process).  [(pid, index)] is the activation
    position the injector recorded: the faulty process and the index of
    its first event after activation.  The paper verifies end-to-end
    that recovery fails iff such a commit exists. *)

val conflict : Trace.t -> crash:Event.t -> bool
(** Save-work and Lose-work conflict for this failure (Figure 9): the
    dangerous path contains a visible event (so Save-work forces a
    commit on it), or the bug is a Bohrbug. *)
