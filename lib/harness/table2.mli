(** Table 2: fraction of operating-system faults after which the
    application fails to come back up (paper §4.2). *)

type row = {
  fault_type : Ft_faults.Fault_type.t;
  crashes : int;  (** runs where the system or the application crashed *)
  failed_recoveries : int;
  propagated : int;  (** corruption reached the application *)
  no_effect : int;
}

val workload : Table1.app -> Ft_apps.Workload.t
(** Table-2 sessions: comparable durations, with nvi at ~10x postgres's
    syscall rate (the paper's non-interactive nvi). *)

val campaign_seed :
  seed0:int -> app:Table1.app -> Ft_faults.Fault_type.t -> int
(** Identity-derived per-campaign trial seed (see
    {!Table1.campaign_seed}), offset so Tables 1 and 2 never share
    per-trial seeds. *)

val row_to_json : row -> Ft_exp.Jstore.value
val row_of_json : Ft_faults.Fault_type.t -> Ft_exp.Jstore.value -> row

val jobs :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:Table1.app ->
  unit -> Ft_exp.Job.t list
(** One job per fault type, each a self-contained campaign. *)

val of_records :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:Table1.app ->
  (string -> Ft_exp.Jstore.value option) -> row list

val failure_pct : row -> float
val average : row list -> float

val propagation_fraction : row list -> float
(** Fraction of crashed runs in which kernel corruption reached the
    application (the §4.2 propagation-failure share). *)

val render : app:Table1.app -> row list -> string
