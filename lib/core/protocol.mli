(** Recovery-protocol decision interface (paper §2.4).

    A protocol upholds Save-work by reacting to each event a process is
    about to execute: log the result (rendering the event deterministic)
    and/or commit, locally or through a coordinated two-phase commit.
    The execution engine interprets reactions and charges their cost. *)

type commit_scope =
  | Local  (** commit just this process *)
  | Global  (** two-phase commit: every process commits *)
  | Dependent
      (** commit this process plus the processes its state causally
          depends on, per piggybacked dependency vectors — asynchronous
          logging's alternative to a global 2PC at output commit *)

(** How a protocol treats non-determinism between commits: coordinated
    protocols commit it away synchronously; the logging styles track it
    with dependency vectors and settle up at output commit. *)
type style = Coordinated | Causal_log | Optimistic_log

type event_info = {
  kind : Event.kind;
  loggable : bool;
      (** the recovery system can log this ND event's result and replay
          it (Discount Checking logs user input and message receives) *)
}

type reaction = {
  log : bool;
  commit_before : commit_scope option;
  commit_after : commit_scope option;
}

val no_reaction : reaction

(** A per-run protocol instance. *)
type t = {
  name : string;
  react : pid:int -> event_info -> reaction;
  note_commit : pid:int -> unit;
      (** called whenever the engine commits [pid], including as a 2PC
          participant: protocols clear nd-since-commit bookkeeping *)
}

(** A protocol definition with its protocol-space coordinates. *)
type spec = {
  spec_name : string;
  nd_effort : float;  (** Figure-3 x coordinate, 0..1 *)
  visible_effort : float;  (** Figure-3 y coordinate, 0..1 *)
  style : style;
  instantiate : nprocs:int -> t;
}

val instantiate : spec -> nprocs:int -> t

val taints : style -> logged:bool -> Event.kind -> bool
(** Does executing an event of this kind advance the process's own
    dependency-vector component?  [Coordinated] never tracks; under
    [Causal_log] only {e unlogged} ND taints (a logged determinant is
    causally replicated and survives crashes); under [Optimistic_log]
    every ND event taints — the volatile log dies with the process. *)

val info_is_nd : event_info -> bool
val info_is_visible : event_info -> bool
val info_is_send : event_info -> bool
