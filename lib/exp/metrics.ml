(** Per-job counters lifted from {!Ft_runtime.Engine.result}, plus the
    arithmetic the sweep observability surface needs (aggregation, rates,
    one-line summaries). *)

type t = {
  commits : int;  (** protocol-triggered commits, all processes *)
  max_commits : int;  (** largest per-process count (xpilot's rate metric) *)
  nd_events : int;
  logged_events : int;
  recoveries : int;
  crashes : int;
  sim_time_ns : int;
}

let zero =
  {
    commits = 0;
    max_commits = 0;
    nd_events = 0;
    logged_events = 0;
    recoveries = 0;
    crashes = 0;
    sim_time_ns = 0;
  }

let of_result (r : Ft_runtime.Engine.result) =
  let sum = Array.fold_left ( + ) 0 in
  {
    commits = sum r.Ft_runtime.Engine.commit_counts;
    max_commits = Array.fold_left max 0 r.Ft_runtime.Engine.commit_counts;
    nd_events = sum r.Ft_runtime.Engine.nd_counts;
    logged_events = sum r.Ft_runtime.Engine.logged_counts;
    recoveries = r.Ft_runtime.Engine.recoveries;
    crashes = r.Ft_runtime.Engine.crashes;
    sim_time_ns = r.Ft_runtime.Engine.sim_time_ns;
  }

let add a b =
  {
    commits = a.commits + b.commits;
    max_commits = max a.max_commits b.max_commits;
    nd_events = a.nd_events + b.nd_events;
    logged_events = a.logged_events + b.logged_events;
    recoveries = a.recoveries + b.recoveries;
    crashes = a.crashes + b.crashes;
    sim_time_ns = a.sim_time_ns + b.sim_time_ns;
  }

let sim_seconds m = float_of_int m.sim_time_ns /. 1e9

let commit_rate m =
  let s = sim_seconds m in
  if s <= 0. then 0. else float_of_int m.max_commits /. s

let to_json m =
  Jstore.Obj
    [
      ("commits", Jstore.Int m.commits);
      ("max_commits", Jstore.Int m.max_commits);
      ("nd", Jstore.Int m.nd_events);
      ("logged", Jstore.Int m.logged_events);
      ("recoveries", Jstore.Int m.recoveries);
      ("crashes", Jstore.Int m.crashes);
      ("sim_ns", Jstore.Int m.sim_time_ns);
    ]

let of_json v =
  {
    commits = Jstore.get_int "commits" v;
    max_commits = Jstore.get_int "max_commits" v;
    nd_events = Jstore.get_int "nd" v;
    logged_events = Jstore.get_int "logged" v;
    recoveries = Jstore.get_int "recoveries" v;
    crashes = Jstore.get_int "crashes" v;
    sim_time_ns = Jstore.get_int "sim_ns" v;
  }

(* --- exact quantiles ----------------------------------------------------- *)

(* Nearest-rank: the smallest sample value with at least ceil(q*n) of
   the sorted sample at or below it.  Exact on tiny samples (n=1 returns
   the sample; n=2 puts p50 on the first element) and under ties —
   no interpolation, every answer is a value that actually occurred. *)

let nearest_rank ~n q =
  if n <= 0 then invalid_arg "Metrics.percentile: empty sample";
  if not (q > 0. && q <= 1.) then
    invalid_arg "Metrics.percentile: q outside (0, 1]";
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  max 1 (min n rank)

let percentile sample q =
  let a = Array.copy sample in
  Array.sort compare a;
  a.(nearest_rank ~n:(Array.length a) q - 1)

let p50 sample = percentile sample 0.50
let p99 sample = percentile sample 0.99
let p999 sample = percentile sample 0.999

let percentile_counts cells q =
  let cells = Array.copy cells in
  Array.sort compare cells;
  let n = Array.fold_left (fun acc (_, c) -> acc + c) 0 cells in
  let rank = nearest_rank ~n q in
  let rec scan i seen =
    let v, c = cells.(i) in
    let seen = seen + c in
    if seen >= rank then v else scan (i + 1) seen
  in
  scan 0 0

