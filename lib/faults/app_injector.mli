(** Application fault injection (paper §4.1): plan a fault from a seeded
    RNG, arm it on a process inside the engine.  Code mutations change
    the program before the run; bit flips fire at a planned dynamic
    instruction count.  Activation — the first moment the mutation
    changes the execution — is recorded with the engine so the Lose-work
    analyses can ask whether a commit followed it. *)

type plan =
  | Code_mutation of { at : int; replacement : Ft_vm.Instr.t }
  | Bit_flip of {
      at_icount : int;  (** dynamic instruction at which to flip *)
      target : [ `Stack | `Heap ];
      bit : int;
      loc_seed : int;  (** picks the word at flip time among live state *)
    }

val plan :
  Random.State.t ->
  Fault_type.t ->
  code:Ft_vm.Instr.t array ->
  horizon:int ->
  plan option
(** [horizon] is the expected dynamic instruction count of a fault-free
    run, used to place bit flips uniformly in time.  [None] when the
    program offers no suitable site. *)

val arm : Ft_runtime.Engine.t -> pid:int -> plan -> unit
(** Install the fault.  Activation is semantic: an off-by-one comparison
    activates only on operands where the operators disagree, a deleted
    branch only when it would have been taken. *)

val arm_recurring :
  Ft_runtime.Engine.t ->
  pid:int ->
  seed:int ->
  Fault_type.t ->
  code:Ft_vm.Instr.t array ->
  horizon:int ->
  plan option
(** Arm a fault that recurs on replay.  Code mutations recur for free
    (the mutation lives in the code array); bit flips are re-armed
    after every restore, redrawn from [(seed, salt)] where [salt] is
    the environment perturbation the scheduler passes to its replay
    hook — identical under generic replay and deep rollback, fresh
    under a perturbed (L2) replay, so only perturbation can dodge the
    recurrence.  Claims the engine's [set_on_replay] slot.  Returns
    the initially armed plan, [None] if the program offers no site. *)
