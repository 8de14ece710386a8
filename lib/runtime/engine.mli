(** The execution engine: runs VM processes on the kernel model under a
    recovery protocol, with Discount Checking commits, rollback and
    replay.  Schedules the runnable process with the smallest local
    clock (a conservative parallel simulation), consults the protocol at
    every event, records the {!Ft_core.Trace}, charges simulated time,
    and recovers crashed processes from their last checkpoint.

    Since the multi-tenant refactor this is a thin facade over a
    1-tenant {!Scheduler}; both include the one declaration of the run
    types ({!Run_types}), so the two APIs interoperate. *)

include module type of struct
  include Run_types
end

val default_config : config

type t

val create :
  ?cfg:config -> kernel:Ft_os.Kernel.t -> programs:Ft_vm.Instr.t array array ->
  unit -> t
(** Builds the engine and takes checkpoint zero of every process ("the
    initial state of any application is always committed", §4). *)

val machine : t -> int -> Ft_vm.Machine.t

val checkpointer : t -> Checkpointer.t
(** The engine's checkpointer — fault injectors reach the per-process
    Rio regions through it ({!Checkpointer.vista}). *)

val set_on_replay : t -> (int -> salt:int -> unit) -> unit
(** Called with [(pid, ~salt)] after every successful restore;
    recurring-fault injectors re-arm here, keyed by the environment
    salt. *)

val record_activation : t -> int -> unit
(** Fault injectors mark the moment the injected bug first changes the
    execution. *)

val activation_recorded : t -> bool

val run : t -> result

val execute :
  ?cfg:config -> kernel:Ft_os.Kernel.t -> programs:Ft_vm.Instr.t array array ->
  unit -> t * result
(** [create] then [run]. *)
