(** Deliberately broken protocol/runtime variants the checker must kill.
    A mutant that survives the default bound means the checker has a
    blind spot — the test suite treats a surviving mutant as a failing
    build. *)

type t = {
  mutant_name : string;
  spec : Ft_core.Protocol.spec;  (** possibly a spec-level mutation *)
  defect : Model.defect;  (** possibly a runtime-level defect *)
  based_on : string;  (** the honest protocol this mutates *)
  expected : string;  (** one line: why and how it should die *)
  program : Model.program option;
      (** a hand-built program when the kill needs a shape the default
          menus cannot express (e.g. the 3-process causal chain of
          resume-cascade-from-scratch); [None] = the default program at
          the caller's bound *)
}

val all : t list
(** Ten: commit-after-visible, budget-never-reset, skip-orphan-commit,
    drop-log-entry, publish-before-log, never-retransmit,
    drop-dependency-vector, commit-without-orphan-kill and the nested
    pair resume-cascade-from-scratch and gc-live-determinant. *)

val by_name : string -> t option
