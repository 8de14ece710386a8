(** Operating-system fault injection (paper §4.2).

    Each injected kernel fault is modelled by the syscall subsystem it
    breaks, whether it corrupts results (and, via bad copyouts, process
    memory) served from that subsystem, and when the kernel finally
    panics.  Non-corrupting faults are pure stop failures.  The panic
    deadline is a {e time}, so an application making more syscalls per
    second meets the broken kernel paths proportionally more often —
    the paper's explanation for nvi's higher failure rate. *)

type subsystem = Input | Network | Clock | Filesystem

val touches : subsystem -> Ft_vm.Syscall.t -> bool

val usage_weights : Ft_os.Kernel.t -> (subsystem * int) array
(** Subsystem weights from a profiled kernel (e.g. the reference run):
    injected faults land in kernel code the workload executes. *)

type plan = {
  fault_type : Fault_type.t;
  subsystem : subsystem;
  corrupts : bool;
  panic_at_ns : int;
  corrupt_bit : int;
  poke_probability : float;
}

val plan : ?weights:(subsystem * int) array -> Random.State.t ->
  Fault_type.t -> plan

val arm : Ft_os.Kernel.t -> plan -> Ft_os.Kernel.os_fault
(** Arm the fault; the returned record's [propagated] flag stays
    readable after the reboot clears the fault from the kernel. *)

val propagated : Ft_os.Kernel.os_fault -> bool
