(** Escalation ladder for recovery: what to try after each crash.

    Generic recovery (the paper's baseline) is rung L0: roll back to the
    last committed checkpoint and replay.  It fails for propagating
    faults — the replay deterministically re-executes the bug.  The
    ladder escalates through progressively more expensive remedies:

    - L0 replay: restore the last commit and re-execute (existing
      retry/backoff machinery).
    - L1 deep rollback: deliberately discard the last [l1_depth]
      committed checkpoints and replay from an earlier commit.  A
      controlled Save-work sacrifice — committed-but-corrupt state is
      abandoned, Consistency is never traded.
    - L2 perturbed replay: re-randomize the environment's
      non-deterministic decisions (kernel RNG stream, cross-sender
      message interleaving) so a Heisenbug's trigger conditions shift.
    - Give up: hand the process to the caller as [Recovery_failed]
      (in a fleet, the quarantine breaker takes over from here). *)

type action =
  | Replay  (** L0: generic rollback to last commit + replay *)
  | Deep_rollback of int
      (** L1: discard that many committed generations, then replay *)
  | Perturbed_replay of { salt : int }
      (** L2: replay with environment re-randomized by [salt] *)
  | Give_up  (** ladder exhausted *)

type t = {
  l1_attempts : int;  (** deep rollbacks before escalating *)
  l1_depth : int;  (** committed generations discarded per L1 attempt *)
  l2_attempts : int;  (** perturbed replays before giving up *)
  sequenced : bool;
      (** sequenced egress and the crash-bar progress rule.  A replayed
          output below the released cursor is absorbed, so the released
          stream equals the failure-free run's; and a commit counts as
          progress only past the highest icount the process crashed at.
          [false] is the legacy discipline: replayed outputs are released
          again as duplicates (consistent, not exactly-once), and any
          commit past the restore point is progress.  {!Lineage} applies
          both. *)
}
(** The rungs after L0.  L0's depth is not a ladder property: it is the
    run's [max_recovery_attempts], which also caps restore retries at
    every rung. *)

val legacy : t
(** L0 alone, unsequenced: the engine's historical generic replay, and
    the default configuration's recovery. *)

val generic : t
(** L0 alone, sequenced: the paper's baseline under exactly-once
    egress. *)

val deep : t
(** L0 + L1, no perturbation. *)

val full : t
(** The whole ladder: L0, L1, then L2. *)

val by_name : string -> t option
(** ["generic"], ["deep"], ["full"]. *)

val decide : t -> l0_attempts:int -> attempt:int -> action
(** [decide t ~l0_attempts ~attempt] is the action for the [attempt]-th
    consecutive crash since the process last made progress (1-based),
    with [l0_attempts] generic replays before the first escalation. *)

val rung : action -> int
(** 0 for [Replay], 1 for [Deep_rollback], 2 for [Perturbed_replay],
    3 for [Give_up]. *)
