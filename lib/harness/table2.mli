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

val jobs :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:Table1.app ->
  unit -> Ft_exp.Job.t list
(** One job per fault type, each a self-contained campaign. *)

val of_records :
  ?target_crashes:int -> ?max_attempts:int -> ?seed0:int -> app:Table1.app ->
  (string -> Ft_exp.Jstore.value option) -> row list

val average : row list -> float

val render : app:Table1.app -> row list -> string
