(** Rescue campaign: what fraction of the "unrecoverable" app-fault mass
    each escalation rung reclaims (tentpole of the escalating-recovery
    work; complements {!Table1}'s negative result).

    Each cell (app x fault type x protocol x ladder) injects recurring
    faults via {!Ft_faults.App_injector.arm_recurring} with suppression
    off, runs under the named {!Ft_recovery.Policy} ladder, and keeps
    only crashed runs.  A run is {e rescued} when it completes with
    output consistent with the fault-free reference; its rung is the
    highest ladder rung the scheduler used.  Consistency must be clean
    at every rung — violations fail the campaign. *)

val ladders : string list
(** ["generic"; "deep"; "full"] — {!Ft_recovery.Policy.by_name} names. *)

type row = {
  app : Table1.app;
  fault_type : Ft_faults.Fault_type.t;
  protocol_name : string;
  ladder : string;
  trials : int;
  crashes : int;
  rescued_by_rung : int array;  (** length 3: rescues peaking at L0/L1/L2 *)
  unrescued : int;
  violations : int;
      (** output corruption or replay divergence on a run whose fault
          never activated — attributable only to the recovery machinery:
          must be 0 at every rung *)
  tainted : int;
      (** the injected fault escaped to the released output — the
          paper's wrong-output mass, unrescuable by any recovery *)
  absorbed : int;
      (** fault-induced replay divergences the sequenced egress absorbed
          (a replayed value disagreed with one already released; the
          released value stood and the user never saw the divergence) *)
  wrong_output : int;
  benign : int;
  deep_rollbacks : int;
  perturbed_replays : int;
  transient : int;
  heisenbug : int;
  bohrbug : int;
  sticky : int;
  work : int;
  instr : int;
  ref_work : int;
  ref_instr : int;
}

type spec = {
  apps : Table1.app list;
  protocols : Ft_core.Protocol.spec list;
  ladder_names : string list;
  fault_types : Ft_faults.Fault_type.t list;
  target_crashes : int;
  max_attempts : int;
  seed0 : int;
}

val default_spec : spec
(** Both apps, cpvs + cbndvs, all three ladders, all seven fault types,
    40 crashes per cell. *)

val smoke_spec : spec
(** CI gate: nvi only, generic vs full, 4 crashes per cell. *)

val jobs : spec -> Ft_exp.Job.t list
(** One resumable job per cell; trial seeds derive from cell identity,
    so sharded and serial sweeps agree byte for byte. *)

type report = { spec : spec; rows : row list }

val of_records : spec -> (string -> Ft_exp.Jstore.value option) -> report
(** The rows of the cells that completed, in job order. *)

val clean : report -> bool
(** Zero Consistency violations at every rung. *)

val render : report -> string
