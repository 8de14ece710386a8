(** The Lose-work invariant (paper §2.5, §4).

    Lose-work Theorem: application-generic recovery from propagation
    failures is guaranteed possible iff the application executes no commit
    event on a dangerous path.

    These are the trace-based checkers; the graph-based coloring is
    {!Dangerous_paths}.  They mirror the paper's fault-injection
    methodology (§4.1): given an execution that crashed, the dangerous
    path extends backwards from the crash to (just after) the last
    transient non-deterministic event; a commit inside that window, and in
    particular a commit after fault activation (the Table-1 criterion,
    which [Ft_harness.Table1] judges with {!committed_after_activation}),
    violates Lose-work.  If there is no transient ND event at all before
    the crash, the bug is a Bohrbug: the dangerous path extends to the
    initial state, which is always committed, so Lose-work is inherently
    violated. *)

type analysis = {
  crash : Event.t;
  bohrbug : bool;              (* dangerous path reaches the initial state *)
  dangerous_from : int;        (* first event index on the dangerous path *)
  commits_on_path : Event.t list;
  violated : bool;
}

(* Analyze the crashed process's linear history.  The dangerous suffix
   starts just after the last transient ND event strictly before the
   crash (that event itself may safely be preceded by a commit, Figure 6B;
   a commit *after* it pins the execution onto the path). *)
let analyze trace ~(crash : Event.t) =
  if not (Event.is_crash crash) then
    invalid_arg "Lose_work.analyze: event is not a crash";
  (* Stream the crashed process's pre-crash history in place. *)
  let last_transient = ref None in
  Trace.iter_of trace crash.pid (fun (e : Event.t) ->
      if e.index < crash.index && Event.is_transient_nd e then
        last_transient := Some e.index);
  let bohrbug, dangerous_from =
    match !last_transient with
    | None -> (true, 0)
    | Some i -> (false, i + 1)
  in
  let commits_on_path =
    let acc = ref [] in
    Trace.iter_of trace crash.pid (fun (e : Event.t) ->
        if e.index < crash.index && Event.is_commit e
           && e.index >= dangerous_from
        then acc := e :: !acc);
    List.rev !acc
  in
  (* The initial state of any application is always committed (§4), so a
     Bohrbug violates Lose-work even with no explicit commit. *)
  let violated = bohrbug || commits_on_path <> [] in
  { crash; bohrbug; dangerous_from; commits_on_path; violated }

(* The Table-1 criterion (§4.1): did the faulty process commit after
   the fault was activated and before the run's first crash?
   [activation] is the position the injector recorded: the faulty pid
   and the index of its first event after activation.  Such a commit
   necessarily lies on the dangerous path, and the paper verifies
   end-to-end that recovery fails iff such a commit exists.  The scan
   stops at the first crash of any process: from there on, recovery
   decides what the process re-executes. *)
let committed_after_activation trace ~activation:(pid, index) =
  let n = Trace.length trace in
  let rec go i =
    i < n
    &&
    let e = Trace.get trace i in
    (not (Event.is_crash e))
    && ((e.pid = pid && e.index >= index && Event.is_commit e) || go (i + 1))
  in
  go 0

(* Save-work and Lose-work conflict for an application (§4, Figure 9) when
   a transient ND event causally precedes a visible event along a path
   whose suffix is dangerous: Save-work demands a commit between the ND
   event and the visible event, Lose-work forbids it.  Over a crashing
   trace we detect the conflict directly: is there a visible event on the
   dangerous suffix?  (Upholding Save-work would force a commit before it.) *)
let conflict trace ~(crash : Event.t) =
  let a = analyze trace ~crash in
  let visible_on_path = ref false in
  Trace.iter_of trace crash.pid (fun (e : Event.t) ->
      if Event.is_visible e && e.index >= a.dangerous_from
         && e.index < crash.index
      then visible_on_path := true);
  a.bohrbug || !visible_on_path
