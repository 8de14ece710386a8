(** Recorded event traces with automatic vector-clock maintenance.

    Message sends and receives are matched by [tag], so happens-before
    (and the causally-precedes approximation of §2.2) can be queried over
    the whole multi-process history. *)

type t

val create : nprocs:int -> t

val copy : t -> t
(** An independent trace with the same history: recording into either
    leaves the other unchanged.  A copy of a {!prefix} view is a view. *)

val prefix : t -> t
(** A read-only view of the trace's history as it is now: it reads as a
    {!copy} taken now would, whatever is recorded into the trace later,
    but shares the events, the per-process rows and the tag tables and
    copies only the per-process counts.  {!record} into a view raises
    [Invalid_argument]. *)

val nprocs : t -> int

val length : t -> int
(** Total number of recorded events. *)

val next_index : t -> int -> int
(** The index the next event of the given process will receive. *)

val record : t -> pid:int -> ?logged:bool -> Event.kind -> Event.t
(** Append an event.  A [Receive] merges the clock captured by the [Send]
    with the same tag, if one was recorded.  Raises [Invalid_argument] on
    a {!prefix} view or a bad pid. *)

val events : t -> Event.t list
(** All events, in global recording order. *)

val events_of : t -> int -> Event.t list
(** One process's events, in execution order (touches only that
    process's events, via the per-process index vector). *)

val get : t -> int -> Event.t
(** The [i]-th event in global recording order, O(1). *)

val iter : t -> (Event.t -> unit) -> unit
(** Apply to every event in global recording order, no allocation. *)

val iter_of : t -> int -> (Event.t -> unit) -> unit
(** Apply to one process's events in execution order, no allocation. *)

val filter : t -> (Event.t -> bool) -> Event.t list
(** Matching events in global recording order, in one pass (no
    intermediate full-history list). *)

val crashes : t -> Event.t list

val matching_send : t -> Event.t -> Event.t option
(** The send whose tag matches the given receive, if recorded. *)

val pp : Format.formatter -> t -> unit
