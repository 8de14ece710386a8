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
  l0_attempts : int;  (** generic replays before escalating *)
  l1_attempts : int;  (** deep rollbacks before escalating *)
  l1_depth : int;  (** committed generations discarded per L1 attempt *)
  l2_attempts : int;  (** perturbed replays before giving up *)
}

val generic : t
(** L0 only: [l1_attempts = l2_attempts = 0], two replays.  The
    engine's legacy path ([policy = None]) {e is} this ladder with
    [l0_attempts = max_recovery_attempts]. *)

val deep : t
(** L0 + L1, no perturbation. *)

val full : t
(** The whole ladder: L0, L1, then L2. *)

val by_name : string -> t option
(** ["generic"], ["deep"], ["full"]. *)

val name : t -> string
(** Inverse of {!by_name} for the stock ladders; a compact spec
    otherwise. *)

val decide : t -> attempt:int -> action
(** [decide t ~attempt] is the action for the [attempt]-th consecutive
    crash since the process last made progress (1-based). *)

val rung : action -> int
(** 0 for [Replay], 1 for [Deep_rollback], 2 for [Perturbed_replay],
    3 for [Give_up]. *)

val max_attempts : t -> int
(** Total crashes tolerated before {!decide} returns [Give_up]. *)
