(** Netstorm: sweep the recovery protocols across an unreliable network
    — loss, duplication, reordering and a mid-run healed partition — and
    check that retransmission keeps the runs complete, the visible
    output consistent (value-based for nvi/TreadMarks, frame-count based
    for xpilot) and Save-work no worse than the reliable reference.
    Fans out over {!Ft_exp.Exp} jobs (parallel, resumable). *)

type point = {
  label : string;
  loss : float;  (** per-frame drop probability *)
  dup : float;  (** per-frame duplication probability *)
  reorder : float;  (** per-frame extra-delay (reorder) probability *)
  partition : bool;  (** one mid-run 0<->1 partition, healed *)
}

val custom_point :
  ?loss:float -> ?dup:float -> ?reorder:float -> ?partition:bool -> unit ->
  point
(** A single point labelled by its parameters — the CLI's
    [--loss/--dup/--reorder/--partition] escape hatch. *)

val default_points : point list
(** calm, breeze, gale, and the acceptance storm (20% loss, 5% dup,
    10% reorder, plus a healed mid-run partition). *)

val default_apps : Figure8.app list
(** nvi (no-traffic path), xpilot and TreadMarks. *)

type cell = {
  c_app : Figure8.app;
  c_protocol : string;
  c_point : point;
  c_outcome : string;
  c_wedged : bool;
  c_consistent : bool;
  c_cons_msg : string;
  c_save_work_broken : bool;
      (** the reference run upheld Save-work-visible but the stressed
          run did not (orphan violations are inert without a crash) *)
  c_aborted_rounds : int;
  c_goodput : float;  (** delivered payload messages per simulated second *)
  c_sends : int;
  c_transmissions : int;
  c_retransmits : int;
  c_gave_up : int;
  c_slowdown : float;  (** stressed sim time / reference sim time *)
}

val violations : cell list -> cell list
(** Cells that wedged, diverged, or broke Save-work. *)

val jobs :
  ?scale:float -> ?seed:int -> ?points:point list -> ?apps:Figure8.app list ->
  unit -> Ft_exp.Job.t list
(** One job per (app, protocol, point); each runs the reliable
    reference and the stressed run inside the thunk. *)

val of_records :
  ?scale:float -> ?seed:int -> ?points:point list -> ?apps:Figure8.app list ->
  (string -> Ft_exp.Jstore.value option) -> cell list
(** The cells of the jobs that completed, in job order. *)

val render :
  ?points:point list -> ?apps:Figure8.app list -> cell list -> string
