(** Per-job counters lifted from {!Ft_runtime.Engine.result} — the
    observability surface each sweep records alongside its results. *)

type t = {
  commits : int;  (** protocol-triggered commits, all processes *)
  max_commits : int;  (** largest per-process count (xpilot's rate metric) *)
  nd_events : int;
  logged_events : int;
  recoveries : int;
  crashes : int;
  sim_time_ns : int;
}

val zero : t
val of_result : Ft_runtime.Engine.result -> t

val add : t -> t -> t
(** Componentwise totals ([max_commits] takes the max). *)

val commit_rate : t -> float
(** Largest per-process commits per simulated second. *)

val to_json : t -> Jstore.value
val of_json : Jstore.value -> t

val percentile : int array -> float -> int
(** [percentile sample q] — exact nearest-rank quantile, [0 < q <= 1]:
    the smallest sample value with at least [ceil (q * n)] of the sorted
    sample at or below it.  No interpolation, so every answer is a value
    that actually occurred; exact on tiny samples ([n = 1] returns the
    sample, [n = 2] puts p50 on the first element) and under ties.  The
    input is not modified.  Raises [Invalid_argument] on an empty sample
    or [q] outside [(0, 1]]. *)

val p50 : int array -> int
val p99 : int array -> int
val p999 : int array -> int

val percentile_counts : (int * int) array -> float -> int
(** Nearest-rank quantile over a [(value, count)] histogram — the shape
    sharded campaigns merge without shipping every sample.  Cells need
    not be sorted or distinct; counts must be non-negative and sum to a
    positive total.  Equivalent to expanding each cell [count] times and
    calling {!percentile}. *)
