(** Parallel job pool on OCaml 5 domains: a shared queue guarded by
    [Mutex]/[Condition] and bounded retry.  Results come back in input
    order regardless of completion order, so parallel and serial sweeps
    render identically. *)

type outcome =
  | Done of Jstore.value
  | Failed of { error : string; attempts : int }
      (** the job raised on every attempt or never ran; the sweep
          continues without it *)

type progress = {
  total : int;
  finished : int;
  failed : int;
  workers : int;
  elapsed_s : float;
  eta_s : float;  (** from mean job latency; infinite until one finishes *)
  utilization : float;  (** busy worker-time / (workers * elapsed) *)
}

val run :
  ?workers:int ->
  ?on_progress:(progress -> unit) ->
  Job.t list ->
  (Job.t * outcome * float) list
(** Runs the jobs on [workers] domains (default
    one per core; [1] runs in the calling domain with no spawn).
    Each returned triple carries the job, its outcome and its wall-clock
    duration in seconds, in input order.  A job that raises is run once
    more; if that attempt raises too it becomes [Failed] after 2
    attempts.  [on_progress] is invoked under the pool lock after every
    job completion. *)
