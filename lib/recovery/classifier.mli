(** Fault classification from observed replay behavior.

    The scheduler feeds every crash (with the machine icount at the
    fault and the environment salt in effect) and every
    progress-after-crash event into an accumulator; [classify] then
    labels the fault by how it responded to the escalation ladder:

    - [Bohrbug]: two consecutive identical-environment replays crashed
      at the same icount — the fault is deterministic; replay alone can
      never dodge it.
    - [Heisenbug]: the fault's manifestation depends on the
      environment — either a perturbed (L2) replay rescued it, or
      identical-environment replays crashed at different icounts before
      the process squeaked through.
    - [Transient]: one crash, then generic replay succeeded — the
      paper's recoverable case.
    - [Sticky]: crashed and never progressed again, with no
      determinism evidence (e.g. the ladder was too short to tell).
    - [Benign]: never crashed. *)

type verdict = Benign | Transient | Heisenbug | Bohrbug | Sticky

type t
(** Mutable per-process observation accumulator. *)

val create : unit -> t

val note_crash : t -> salt:int -> icount:int -> unit
(** A crash at machine instruction [icount] while the environment was
    perturbed by [salt] ([salt = 0] means unperturbed). *)

val note_progress : t -> rung:int -> unit
(** The process made progress (committed past the fault) after one or
    more crashes; [rung] is the ladder rung of the last recovery action
    taken (0 = generic replay, 1 = deep rollback, 2 = perturbed
    replay). *)

val same_icount_pair : t -> bool
(** Two consecutive crashes under the same salt at the same icount were
    observed (the Bohrbug signature). *)

val classify : t -> verdict
