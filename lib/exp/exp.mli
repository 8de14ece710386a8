(** The experiment runner: named, resumable, parallel sweeps over
    {!Job} lists, with results cached in a per-sweep {!Store}. *)

type sweep_result = {
  records : Store.record list;  (** one per job, in job order *)
  ran : int;  (** executed this invocation *)
  skipped : int;  (** already completed in the warm store *)
  failed : int;  (** [Failed] rows among [records] *)
}

val default_out_dir : string
(** ["results"]. *)

val run_sweep :
  ?workers:int ->
  ?fresh:bool ->
  ?out_dir:string ->
  ?quiet:bool ->
  name:string ->
  Job.t list ->
  sweep_result
(** Runs [jobs] on the pool and returns one record per job in job
    order.  With [out_dir], the sweep is stored: jobs already completed
    in [out_dir/name.jsonl] are skipped, the rest (failed rows included)
    are run again and appended to it, and
    [fresh] ignores and truncates the warm store.  Without [out_dir],
    every job runs in memory and no file is touched.  Progress lines and
    the skipped-job count go to stderr unless [quiet], keeping stdout
    byte-identical across [-j] settings. *)

val lookup : sweep_result -> string -> Jstore.value option
(** Key-indexed view of a sweep's completed values (failed rows are
    absent). *)

val failures : sweep_result -> (string * string) list
(** The jobs that died without a verdict: each [Failed] record's key and
    error, in job order. *)
