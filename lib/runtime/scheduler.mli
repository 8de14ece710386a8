(** The multi-tenant scheduler core: the engine's event loop factored so
    one scheduler steps many independent application instances
    ("tenants") against a shared virtual clock.

    A tenant is everything one experiment used to own — VM processes,
    kernel, checkpointer, nd-since-commit bits, trace, fault bookkeeping,
    recovery budgets.  The scheduler repeatedly picks the live tenant
    furthest behind on the virtual clock (ties to the lowest tenant id)
    and runs one iteration of the legacy engine loop for it, so a
    1-tenant scheduler is step-identical to the old {!Engine} — which is
    now a facade over this module.  Live tenants sit in an index ordered
    by (next time, tenant id); a step re-keys only its own tenant and
    the tenants on its transport, so its cost does not grow with the
    fleet.

    Tenants may share one {!Ft_net.Transport}: give each kernel a
    disjoint global pid range with {!Ft_os.Kernel.set_net}[ ~base] and
    route the transport's [deliver] callback back through
    {!Ft_os.Kernel.deliver_net} to the kernels attached to that same
    transport.  Links never cross tenants, so the per-tenant network
    verdicts (pending frames, earliest event, dead links) come from the
    transport's range queries and match what a private transport would
    say. *)

include module type of struct
  include Run_types
end

val default_config : config

type t

val create :
  tenants:(config * Ft_os.Kernel.t * Ft_vm.Instr.t array array) array ->
  unit ->
  t
(** Builds every tenant and takes checkpoint zero of each of its
    processes ("the initial state of any application is always
    committed", §4).  Kernels must be sized for their program arrays;
    sharing a transport between kernels is the caller's wiring
    ({!Ft_os.Kernel.set_net}). *)

val steps : t -> int
(** Scheduling steps taken so far, across all tenants — one step is one
    iteration of the legacy engine loop (the bench hot-loop metric). *)

val machine : t -> tid:int -> pid:int -> Ft_vm.Machine.t
val kernel : t -> tid:int -> Ft_os.Kernel.t

val checkpointer : t -> tid:int -> Checkpointer.t
(** A tenant's checkpointer — fault injectors reach the per-process Rio
    regions through it ({!Checkpointer.vista}). *)

val set_on_replay : t -> tid:int -> (int -> salt:int -> unit) -> unit
(** Called with [(pid, ~salt)] after every successful restore, whatever
    the rung; [salt] is the environment perturbation in effect (0 =
    unperturbed).  Recurring-fault injectors re-arm here, keyed by the
    salt, so a Heisenbug's manifestation moves when the environment
    does. *)

val record_activation : t -> tid:int -> int -> unit
(** Fault injectors mark the moment the injected bug first changes the
    execution. *)

val activation_recorded : t -> tid:int -> bool

val run : t -> result array
(** Drive every tenant to its verdict; [(run t).(tid)] is tenant
    [tid]'s result.  Attach transports before this call: the tenant
    index, and which tenants share a transport, are fixed here. *)
