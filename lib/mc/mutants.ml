(* The mutant suite: each entry breaks one protocol (or the runtime
   under it) in one specific way, and names the oracle that should
   convict it.  The checker is only trusted while it kills every one of
   these. *)

open Ft_core

type t = {
  mutant_name : string;
  spec : Protocol.spec;
  defect : Model.defect;
  based_on : string;
  expected : string;
  program : Model.program option;
}

let base name =
  match Protocols.by_name name with
  | Some s -> s
  | None -> invalid_arg ("Mutants: unknown base protocol " ^ name)

(* CPVS that commits just *after* each visible or send instead of just
   before: the visible escapes with its non-determinism uncommitted, a
   straight Save-work-visible violation on crash-free traces. *)
let commit_after_visible =
  let cpvs = base "CPVS" in
  {
    mutant_name = "commit-after-visible";
    program = None;
    based_on = "CPVS";
    defect = Model.Honest;
    expected = "Save-work violation on the crash-free prefix";
    spec =
      {
        cpvs with
        spec_name = "CPVS!after";
        react =
          (fun ~nd_since ~pid info ->
            let r = cpvs.Protocol.react ~nd_since ~pid info in
            match r.Protocol.commit_before with
            | Some scope ->
                { r with commit_before = None; commit_after = Some scope }
            | None -> r);
      };
  }

(* CAND over commit machinery with a budget of two commits that it never
   replenishes: once exhausted, ND events run uncommitted and the next
   visible anywhere convicts it. *)
let budget_never_reset =
  {
    mutant_name = "budget-never-reset";
    program = None;
    based_on = "CAND";
    defect = Model.Commit_budget;
    expected = "commits stop after the budget; later visibles violate Save-work";
    spec = { (base "CAND") with spec_name = "CAND!budget" };
  }

(* CPV-2PC whose participants never actually commit their half of the
   round: the coordinator publishes on the strength of commits that did
   not happen, and a participant crash loses non-determinism the output
   already depends on. *)
let skip_orphan_commit =
  {
    mutant_name = "skip-orphan-commit";
    program = None;
    based_on = "CPV-2PC";
    defect = Model.Skip_orphan;
    expected = "participant crash redraws ND the published output used";
    spec = base "CPV-2PC";
  }

(* CAND-LOG over a logger that loses entries: the trace claims the ND
   result was logged, but replay after a crash redraws it.  Only the
   end-to-end consistency oracle can see this — the trace looks clean. *)
let drop_log_entry =
  {
    mutant_name = "drop-log-entry";
    program = None;
    based_on = "CAND-LOG";
    defect = Model.Drop_log;
    expected = "replay redraws a 'logged' result; outputs diverge across the crash";
    spec = base "CAND-LOG";
  }

(* CBNDVS-LOG over a runtime that hands output to the user before the
   protocol's pre-visible commit lands: a crash inside that commit
   leaves published output depending on rolled-back non-determinism. *)
let publish_before_log =
  {
    mutant_name = "publish-before-log";
    program = None;
    based_on = "CBNDVS-LOG";
    defect = Model.Publish_first;
    expected = "mid-commit crash republishes a different value for shown output";
    spec = base "CBNDVS-LOG";
  }

(* CAND over a network stack that never retransmits: a single dropped
   frame is never repaired, the FIFO link falls silent past the hole,
   and the receiver's skipped binding bends its lineage — the loss
   stops being transparent.  Only the drop-one-message fault variants
   can see this; every process-crash oracle stays green. *)
let never_retransmit =
  {
    mutant_name = "never-retransmit";
    program = None;
    based_on = "CAND";
    defect = Model.No_retransmit;
    expected = "a lost frame is never repaired; output diverges from the no-loss run";
    spec = base "CAND";
  }

(* CAUSAL-LOG over a runtime that never merges the piggybacked
   dependency vectors: dependent commits see no remote taint, so a
   visible is published over another process's uncommitted, unlogged
   non-determinism — the Save-work oracle convicts it on the crash-free
   prefix. *)
let drop_dependency_vector =
  {
    mutant_name = "drop-dependency-vector";
    program = None;
    based_on = "CAUSAL-LOG";
    defect = Model.Drop_dv;
    expected = "blind dependent commits leave remote ND uncovered at a visible";
    spec = base "CAUSAL-LOG";
  }

(* OPTIMISTIC whose recovery restores only the crashed process: a
   survivor whose state depends on the victim's wiped volatile log keeps
   running on the dead lineage, and its next published value diverges
   from the surviving lineage's reference run. *)
let commit_without_orphan_kill =
  {
    mutant_name = "commit-without-orphan-kill";
    program = None;
    based_on = "OPTIMISTIC";
    defect = Model.No_orphan_kill;
    expected = "unkilled orphan publishes a value from the rolled-back lineage";
    spec = base "OPTIMISTIC";
  }

(* OPTIMISTIC whose re-entered recovery restarts the orphan cascade from
   the victim alone instead of resuming the persisted worklist.  Needs
   three processes and a hand-built chain: A's crash orphans B (B
   received A's uncommitted taint), while C depends only on B's earlier
   non-determinism — so once B has been rolled back, a from-scratch
   rescan from A finds nothing (B's restored vector no longer advertises
   the taint) and C survives as an orphan on B's dead lineage.  The
   default program cannot express this: its receive-first menus give C a
   direct dependence on A, which even the buggy rescan catches. *)
let resume_cascade_from_scratch =
  let chain3 : Model.program =
    [|
      [| Model.Nd (Event.Transient, false); Model.Send 1; Model.Visible |];
      [| Model.Nd (Event.Transient, false); Model.Send 2; Model.Receive |];
      [| Model.Receive; Model.Visible |];
    |]
  in
  {
    mutant_name = "resume-cascade-from-scratch";
    program = Some chain3;
    based_on = "OPTIMISTIC";
    defect = Model.Resume_from_scratch;
    expected =
      "a victim re-crashed mid-cascade restarts the scan from scratch; the \
       transitive orphan survives and publishes a dead lineage";
    spec = base "OPTIMISTIC";
  }

(* CAUSAL-LOG under a determinant GC that retires any entry its owner
   has *executed* past instead of any its owner has *committed* past: a
   bystander's commit drops the logged transient draw backing an
   already-published visible, and the owner's replay after a crash
   redraws it — the published output belongs to no failure-free run. *)
let gc_live_determinant =
  let prog : Model.program =
    [|
      [|
        Model.Nd (Event.Transient, false); Model.Visible;
        Model.Nd (Event.Transient, true); Model.Visible;
      |];
      [| Model.Nd (Event.Transient, false); Model.Visible |];
    |]
  in
  {
    mutant_name = "gc-live-determinant";
    program = Some prog;
    based_on = "CAUSAL-LOG";
    defect = Model.Gc_live_determinant;
    expected =
      "a bystander's commit retires a live determinant; the owner's replay \
       redraws it and diverges from the published output";
    spec = base "CAUSAL-LOG";
  }

let all =
  [
    commit_after_visible;
    budget_never_reset;
    skip_orphan_commit;
    drop_log_entry;
    publish_before_log;
    never_retransmit;
    drop_dependency_vector;
    commit_without_orphan_kill;
    resume_cascade_from_scratch;
    gc_live_determinant;
  ]

let by_name n = List.find_opt (fun m -> m.mutant_name = n) all
