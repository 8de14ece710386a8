(** Counterexample minimization.

    Given a violation found by the checker, greedily shrinks the
    (schedule, crash, program) triple to a locally-minimal failing
    repro: no single step can be dropped from the schedule, the crash
    cannot be simplified further, and no remaining program operation can
    be weakened to [Internal] — all while a violation of the {e same
    oracle} persists.  The result pretty-prints as a {!Script} that
    replays through {!Model.run} under the same protocol and defect. *)

type result = {
  s_prefix : int list;  (** minimized schedule *)
  s_crash : Model.crash;  (** minimized crash *)
  s_program : Model.program;  (** minimized program (ops weakened) *)
  s_oracle : Checker.oracle;
  s_detail : string;  (** the surviving violation's detail line *)
  s_attempts : int;  (** candidate executions evaluated while shrinking *)
}

val minimize :
  ?lose_work:bool ->
  spec:Ft_core.Protocol.spec ->
  defect:Model.defect ->
  program:Model.program ->
  Checker.violation ->
  result
(** Shrink to a local minimum.  The violation must actually reproduce
    under [check_one] with the given configuration (every violation
    reported by {!Checker.check} does); otherwise the original is
    returned unshrunk. *)

val to_script :
  spec:Ft_core.Protocol.spec -> defect:Model.defect -> result -> string
(** The minimized counterexample as a replayable script: comment lines
    identifying protocol, defect (omitted when [Honest]), oracle, crash
    and detail, followed by one {!Script.step} per line (parseable by
    {!Script.steps_of_string}). *)
