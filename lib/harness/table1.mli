(** Table 1: fraction of application faults that violate Lose-work by
    committing between fault activation and the crash (paper §4.1),
    measured by injection campaigns over nvi and postgres under
    Discount Checking with CPVS, with the paper's end-to-end
    recovery-suppression check. *)

type app = Nvi | Postgres

val app_name : app -> string
val workload : app -> Ft_apps.Workload.t

val base_cfg : Ft_apps.Workload.t -> Ft_runtime.Engine.config

type row = {
  fault_type : Ft_faults.Fault_type.t;
  crashes : int;
  violations : int;
  wrong_output : int;
  no_effect : int;
  end_to_end_mismatches : int;
      (** crashes where recovery success did not equal no-violation; the
          residue is commits that captured no corrupted state *)
}

val budget : horizon:int -> int
(** Per-trial instruction budget of every fault campaign, from the
    fault-free run's instruction count: past it a trial is a hang. *)

val trials :
  target_crashes:int ->
  max_attempts:int ->
  seed0:int ->
  crashed:('a -> bool) ->
  (int -> 'a) ->
  'a list
(** [trials ~target_crashes ~max_attempts ~seed0 ~crashed run] is the
    trial loop of every fault campaign: the outcomes of [run seed0],
    [run (seed0 + 1)], ..., in order, stopping once [target_crashes] of
    them satisfy [crashed] or [max_attempts] have run. *)

val campaign :
  ?target_crashes:int ->
  ?max_attempts:int ->
  ?seed0:int ->
  mk_workload:(unit -> Ft_apps.Workload.t) ->
  Ft_faults.Fault_type.t ->
  row
(** One fault type's campaign against a fresh [mk_workload ()] per
    trial (and one for the fault-free reference run). *)

val campaign_seed : seed0:int -> app:app -> Ft_faults.Fault_type.t -> int
(** The per-campaign trial seed, derived from the campaign's identity
    (app, fault type) rather than its position in the sweep, so
    enumeration order and worker scheduling cannot change any trial's
    RNG. *)

val jobs :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:app ->
  unit -> Ft_exp.Job.t list
(** One job per fault type, each a full campaign. *)

val of_records :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:app ->
  (string -> Ft_exp.Jstore.value option) -> row list
(** Rows assembled from stored job values, in {!Ft_faults.Fault_type.all}
    order (a job that died renders as a zero row, which the CLI never
    prints without also failing the command). *)

val average : row list -> float
val render : app:app -> row list -> string
