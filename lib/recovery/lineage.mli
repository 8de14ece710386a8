(** One process's recovery lineage: the ladder's bookkeeping, the fault
    classifier's evidence and the sequenced egress cursor.  The scheduler
    reports what happens to the process and asks what to do next; these
    transitions are the only code that applies the progress rule or
    reads {!Policy.t.sequenced}.

    Progress: a commit refills the attempt budget only strictly past the
    restore point, the restored snapshot's icount plus one (a
    commit-before checkpoint counts its rewound Sys instruction, so the
    deterministic replay re-reaches that commit at exactly icount + 1).
    A sequenced ladder also requires it strictly past the crash bar, the
    highest icount the process crashed at: a recurring fault lets the
    replay commit underneath the crash before biting again, and those
    commits are replay, not escape.

    Classification records each crash's salt and its icount relative to
    the restore base: replay re-executes the rewound commit Sys, shifting
    absolute icounts by one per restore under commit-before protocols, so
    only the offset is replay-invariant.  It is pure observation and
    never feeds back into the simulation.

    Two quirks are kept, byte for byte, for the change that measures
    progress by lineage position: the restore base is 0 before the first
    restore, so an original crash plus one replay crash at the same place
    reads [Sticky], not [Bohrbug]; and a kernel panic recovers its
    processes through {!next_action} without a {!crash}, recording no
    evidence and leaving the crash bar where it was. *)

type verdict =
  | Benign  (** never crashed *)
  | Transient  (** one crash, then replay succeeded: the recoverable case *)
  | Heisenbug
      (** environment-dependent: a perturbed (L2) replay rescued it, or
          same-salt crashes wandered before the process squeaked through *)
  | Bohrbug
      (** two consecutive same-salt crashes at the same offset: replay
          alone can never dodge it *)
  | Sticky  (** never progressed again, without determinism evidence *)

type t

val create : Policy.t -> l0_attempts:int -> t
(** [l0_attempts] generic replays come before the first escalation. *)

val crash : t -> icount:int -> unit

val next_action : t -> Policy.action
(** Counts one more attempt since the last progress and returns
    {!Policy.decide}'s action for it.  Any action but [Give_up] becomes
    the last rung; a [Perturbed_replay]'s salt takes effect with it. *)

val restored : ?out_seq:int -> t -> icount:int -> unit
(** The output cursor rewinds to the committed one, which a deep
    rollback first resets to its archived [out_seq]. *)

val committed : t -> icount:int -> bool
(** [true] when the commit is progress after a crash: the rescue is
    recorded and the attempt count resets. *)

val halted : t -> icount:int -> unit
(** Halt past the restore point after a crash is a rescue, with no
    crash-bar test: a fault planted after the last commit leaves no
    commit past the bar to witness the escape, and a Halt below the bar
    is a replay that took a different exit.  Halt is terminal, so the
    attempt count stays. *)

val output : t -> int -> bool
(** [true] when the value is released.  Only a sequenced ladder absorbs
    a replayed output, and counts a mismatch when it disagrees with the
    value released at its position; the legacy one releases replays
    again as duplicates. *)

val restart : t -> unit
(** A fresh attempt budget, for the quarantine breaker's half-open
    probe. *)

val out_seq : t -> int

val salt : t -> int
(** 0 when unperturbed *)

val peak_rung : t -> int
(** 0 replay, 1 deep rollback, 2 perturbed replay *)

val released : t -> int

val mismatches : t -> int
(** The machinery-consistency oracle for the ladder, expected to stay 0:
    any mismatch means recovery broke exactly-once output. *)

val classify : t -> verdict
