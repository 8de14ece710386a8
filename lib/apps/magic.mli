(** magic: a VLSI CAD layout tool (paper §3, Figure 8b).  One command a
    second edits or inspects a cell grid, re-renders a large layout view
    (the dominant dirty state per checkpoint), brackets the work with
    [gettimeofday] (unloggable ND) and prints a status line. *)

type params = {
  commands : int;
  interval_ns : int;
  signal_period_ns : int;
  seed : int;
}

val default_params : params
val small_params : params

val fb_base : int
(** Start of the re-rendered layout view: fully rebuilt every command,
    so it can be excluded from checkpoints (§2.6). *)

val workload : ?params:params -> unit -> Workload.t
