(** Measured ablations of the design choices DESIGN.md calls out — each
    a quantified version of a §2.6 mitigation or cost-model choice. *)

type crash_early_row = {
  check_every : int;
  crashes : int;
  violations : int;
  violation_pct : float;
}

val crash_early_jobs :
  ?cadences:int list -> ?target_crashes:int -> ?max_attempts:int -> unit ->
  Ft_exp.Job.t list
(** Lose-work violation rate of nvi heap bit flips as a function of the
    consistency-check cadence: checking more often crashes sooner and
    leaves fewer commits on the dangerous path.  One job per cadence. *)

val crash_early_of_records :
  ?cadences:int list -> ?target_crashes:int -> ?max_attempts:int ->
  (string -> Ft_exp.Jstore.value option) -> crash_early_row list

val render_crash_early : crash_early_row list -> string

val jobs : unit -> Ft_exp.Job.t list
(** Every ablation study's jobs (default parameters), for sweeping: the
    crash-early cadence above, the DC-disk overhead of magic with and
    without its recomputable framebuffer excluded from checkpoints, COW
    page size and commit medium. *)

val render_records : (string -> Ft_exp.Jstore.value option) -> string
(** All four studies rendered from stored job values. *)
