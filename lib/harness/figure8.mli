(** Figure 8: protocol-space performance of the four applications on
    Discount Checking and DC-disk. *)

type app = Nvi | Magic | Xpilot | Treadmarks

val app_name : app -> string
val app_of_name : string -> app option
val all_apps : app list

val workload : ?scale:float -> app -> Ft_apps.Workload.t
(** [scale] in (0, 1] shrinks the workload for quick runs. *)

val protocols_for : app -> Ft_core.Protocol.spec list
(** The 2PC variants only appear for the distributed applications,
    joined there by the message-logging pair (CAUSAL-LOG, OPTIMISTIC). *)

type cell = {
  protocol : string;
  checkpoints : int;  (** total over the run, all processes *)
  ckps_per_sec : float;  (** largest per-process rate (xpilot metric) *)
  dc_overhead : float;  (** percent over the unrecoverable baseline *)
  dcdisk_overhead : float;
  dc_fps : float;
  dcdisk_fps : float;
  nd_events : int;
  logged_events : int;
}

type app_result = { app : app; baseline_ns : int; cells : cell list }

val jobs : ?scale:float -> ?seed:int -> app -> Ft_exp.Job.t list
(** One job per engine run: the NO-COMMIT baseline plus (protocol x
    medium) for the app's protocol space. *)

val of_records :
  ?scale:float ->
  ?seed:int ->
  app ->
  (string -> Ft_exp.Jstore.value option) ->
  app_result
(** Assembles the figure from stored job values (a job that died
    renders as a zero cell, which the CLI never prints without also
    failing the command). *)

val render : app_result -> string
