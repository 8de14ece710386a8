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

(** A protocol definition with its protocol-space coordinates: a pure
    decision function whose only history is one bit per process,
    [nd_since.(pid)] — an unlogged ND event since the last commit.  The
    executor owns the bits and clears [pid]'s at each commit of [pid]. *)
type spec = {
  spec_name : string;
  nd_effort : float;  (** Figure-3 x coordinate, 0..1 *)
  visible_effort : float;  (** Figure-3 y coordinate, 0..1 *)
  style : style;
  react : nd_since:bool array -> pid:int -> event_info -> reaction;
      (** the reaction to the event [pid] is about to execute; reads
          [nd_since] and never writes it *)
}

val consult :
  spec -> nd_since:bool array -> pid:int -> event_info -> reaction
(** [spec.react], then [nd_since.(pid) <- true] when the event is ND and
    the reaction does not log it.  Executors call this, never
    [spec.react] directly. *)

val taints : style -> logged:bool -> Event.kind -> bool
(** Does executing an event of this kind advance the process's own
    dependency-vector component?  [Coordinated] never tracks; under
    [Causal_log] only {e unlogged} ND taints (a logged determinant is
    causally replicated and survives crashes); under [Optimistic_log]
    every ND event taints — the volatile log dies with the process. *)

val info_is_nd : event_info -> bool
val info_is_visible : event_info -> bool
val info_is_send : event_info -> bool
