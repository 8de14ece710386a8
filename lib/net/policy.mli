(** Per-link fault policy for the unreliable channel: loss, duplication,
    reordering, and (possibly healing) partitions.  Pure data — the
    transport draws all randomness from its own seeded stream, so a
    sweep point reproduces from (policy, seed). *)

type partition = {
  part_from : int;  (** ns, inclusive *)
  part_until : int;  (** ns, exclusive; [max_int] never heals *)
  part_src : int;  (** -1 matches any source *)
  part_dst : int;  (** -1 matches any destination *)
}
(** A partition cuts both directions between its endpoints. *)

type t = {
  drop : float;  (** P(frame lost), per transmission attempt *)
  duplicate : float;  (** P(frame delivered twice) *)
  reorder : float;  (** P(frame delayed past its successors) *)
  reorder_ns : int;  (** extra delay a reordered frame suffers *)
  partitions : partition list;
}

val reliable : t
(** No faults: the transport still sequences and acks, but every frame
    arrives exactly once, in order, after base latency. *)

val make :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?reorder_ns:int ->
  ?partitions:partition list ->
  unit ->
  t

val partition :
  ?src:int ->
  ?dst:int ->
  from_ns:int ->
  until_ns:int ->
  unit ->
  partition
(** [src]/[dst] default to -1 (any). *)

val partitioned : t -> src:int -> dst:int -> now:int -> bool
(** Is the [src]->[dst] direction cut at time [now]? *)
