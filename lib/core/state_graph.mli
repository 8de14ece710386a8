(** Explicit process state machines for the dangerous-paths algorithm
    (paper §2.5, Figures 6 and 7). *)

(** Edge classification.  Receive edges carry no intrinsic ND class: the
    multi-process algorithm computes it from a snapshot of the other
    processes' commits. *)
type edge_kind =
  | Det
  | Transient_nd
  | Fixed_nd
  | Receive_nd of int  (** receive from the given sender *)

type edge = { id : int; src : int; dst : int; kind : edge_kind }

type t = private {
  nstates : int;
  edges : edge array;
  crash_states : bool array;  (** the states "filled black" in Figure 6 *)
  out : int list array;
}

val make :
  nstates:int ->
  edges:(int * int * edge_kind) list ->
  crash_states:int list ->
  t
(** Build a graph; raises [Invalid_argument] on out-of-range endpoints. *)

val nedges : t -> int
val edge : t -> int -> edge
val out_edges : t -> int -> edge list
val is_crash_state : t -> int -> bool

val is_crash_edge : t -> edge -> bool
(** A crash event: an edge whose end state is a crash state. *)

val to_dot : ?dangerous:bool array -> t -> string
(** Graphviz rendering: crash states filled black, dangerous edges (as
    computed by {!Dangerous_paths.dangerous_edges}) drawn red — the
    visual language of the paper's Figures 6 and 7. *)
