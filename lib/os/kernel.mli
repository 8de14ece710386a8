(** The kernel model: services syscalls, classifies each as an event of
    the paper's taxonomy, and owns the clock, scripted input sources,
    timer signals, per-process file systems, the network (with delivery
    jitter, duplicate filtering and the receive recovery buffer), and
    the OS-fault machinery of the Table-2 experiment. *)

type costs = {
  instr_ns : int;  (** cost of one VM instruction *)
  syscall_ns : int;  (** base cost of a syscall *)
  network_latency_ns : int;  (** one-way message latency *)
  network_jitter_ns : int;  (** max extra random delay (message-order ND) *)
}

(** Event classification of a serviced syscall. *)
type ev =
  | Ev_none  (** deterministic *)
  | Ev_nd of Ft_core.Event.nd_class * bool  (** class, loggable *)
  | Ev_visible of int
  | Ev_send of { dest : int; tag : int }
  | Ev_receive of { src : int; tag : int }

type served = {
  r0 : int option;  (** result register 0 *)
  r1 : int option;
  cost_ns : int;
  new_time : int option;  (** blocking advanced the local clock here *)
  ev : ev;
  poke : int option;
      (** an injected kernel fault corrupted process memory through this
          syscall: a seed the engine uses to pick the word *)
}

type result =
  | Served of served
  | Block_recv  (** no message available; retry when one arrives *)
  | Panic  (** the injected kernel fault reached its crash point *)

(** A message in flight.  [msg_seq] is the per-sender sequence number
    the receive-side duplicate filter keys on; [msg_tag] is the stable
    trace tag; [msg_deliver_at] the arrival time (stamped by the
    transport when one is attached).  [msg_dv] is the sender's
    dependency vector piggybacked at send time under a message-logging
    protocol (the width-0 clock otherwise) and [msg_inc] its incarnation
    number, which tells stale pre-rollback messages apart from their
    redone replacements. *)
type message = {
  msg_src : int;
  msg_dest : int;
  msg_payload : int;
  msg_seq : int;
  msg_tag : int;
  msg_deliver_at : int;
  msg_dv : Ft_core.Vclock.t;
  msg_inc : int;
}

(** An injected OS fault (configured by {!Ft_faults.Os_injector}). *)
type os_fault = {
  mutable panic_at : int;
      (** absolute panic time: the corruption window is a time interval,
          so exposure scales with the application's syscall rate (§4.2) *)
  touches : Ft_vm.Syscall.t -> bool;
      (** syscalls served from the broken subsystem *)
  corrupt_bit : int;  (** result bit flipped by the corruption *)
  poke_probability : float;
      (** chance a touched syscall also corrupts process memory *)
  mutable propagated : bool;  (** corruption reached the application *)
}

type t
type kstate_snapshot

val create :
  ?seed:int ->
  ?fs_capacity:int ->
  ?max_open_files:int ->
  nprocs:int ->
  unit ->
  t

val costs : t -> costs
(** Approximately the paper's testbed: 400 MHz Pentium II on 100 Mb/s
    switched Ethernet. *)

val nprocs : t -> int

val set_input : t -> int -> (int * int) array -> unit
(** Scripted user input: [(gap_ns, token)] pairs; each token becomes
    available [gap] after the previous read's response (think time
    serializes with processing, as in the paper's interactive runs). *)

val scripted_input :
  start:int -> interval_ns:int -> int list -> (int * int) array

val set_input_absolute : t -> int -> (int * int) array -> unit
(** Open-loop scripted input: [(absolute_ready_ns, token)] pairs.  Each
    token is available at its fixed arrival time regardless of when the
    previous response completed, so backlog after a crash shows up as
    request latency rather than shifting the whole schedule. *)

val open_loop_input :
  start:int -> interval_ns:int -> int list -> (int * int) array
(** Fixed-rate arrival schedule for {!set_input_absolute}: token [i]
    becomes ready at [start + i * interval_ns]. *)

val set_timer_signal : t -> int -> period_ns:int -> first_at:int -> unit

val poll_signal : t -> int -> now:int -> bool
(** Is a timer signal due?  Consumes the occurrence. *)

val set_os_fault : t -> os_fault -> unit
val os_fault : t -> os_fault option
val panicked : t -> bool

val clear_os_fault : t -> unit
(** Reboot: the injected fault is gone. *)

val expand_resources : t -> unit
(** §2.6: grow the disk and the open-file table, turning the fixed ND
    resource-exhaustion results into transient ones for recovery. *)

val snapshot_kstate : t -> int -> kstate_snapshot
(** Per-process kernel state (input position, open files, send sequence,
    duplicate filter, signal timers): Discount Checking preserves it at
    commit time and reconstructs it during recovery (§3). *)

val kstate_to_words : kstate_snapshot -> int array
(** Serialize a snapshot to words so the checkpointer can persist it in
    reliable memory alongside the process image. *)

val kstate_of_words : int array -> kstate_snapshot
(** Inverse of {!kstate_to_words}.  Raises [Invalid_argument] on a
    truncated snapshot. *)

val mailbox_nonempty : t -> int -> bool

(** {2 Lineage: one call per ND event, commit and rollback}

    Each process's lineage is the state that is restored with it but is
    not kstate: the receive recovery buffer and, under dependency
    tracking, its dependency vector, its confirmed-stable marks and its
    determinant log, together with the incarnations and rollback
    barriers that must {e survive} restores to keep filtering stale
    messages.  The kernel snapshots the lineage at {!commit} and rolls it
    back at {!rollback}; callers only report the events. *)

val note_nd : t -> int -> taints:bool -> bool
(** [pid] executed an ND event.  Under tracking it records a determinant
    and, when the event [taints], advances the process's own vector
    component.  Returns [true] when the determinant store exceeds its
    hard cap — the caller must force a flush-to-checkpoint rather than
    let the log grow unbounded.  Without tracking: nothing, [false]. *)

val commit : t -> int -> live:(int -> bool) -> unit
(** [pid] committed: consumed messages need never be redelivered.  Under
    tracking, also snapshot its vector and stable marks as the new
    rollback baseline, make its determinants so far retirable, and
    retire every process's committed determinants that no [live]
    process still depends on.  The retirement watermark only advances,
    so re-running a commit after a nested crash never un-retires. *)

val rollback : t -> int -> kstate_snapshot -> unit
(** [pid] was restored to the commit that saved this kstate: restore
    it, and under tracking roll the vector and stable marks back to that
    commit, bump the incarnation and bar in-flight messages the rollback
    un-sent, and drop the dead lineage's determinants.  Then redeliver
    the messages consumed since the commit, in order, minus the barred
    ones (the §2.1 recovery buffer). *)

(** {2 Dependency tracking (message-logging protocols)}

    Enabled by the engine when the protocol's style is [Causal_log] or
    [Optimistic_log]: sends piggyback the sender's dependency vector,
    receives merge it into the receiver's, and the predicates below read
    the vectors so callers never see them. *)

val enable_dependency_tracking : t -> unit
val dependency_tracking : t -> bool

val unconfirmed : t -> by:int -> int -> bool
(** [unconfirmed t ~by q]: [by]'s state depends on more of [q]'s
    non-determinism than [by] has confirmed durable through an
    acknowledged dependent-commit round — [q] must co-commit before
    [by]'s output. *)

val confirm : t -> by:int -> int -> unit
(** [q] acknowledged [by]'s round: everything of [q]'s own ND to date is
    durable.  [by]'s next {!commit} snapshots the mark. *)

val self_tainted : t -> int -> bool
(** The process executed tainting ND since its newest commit. *)

val orphaned : t -> victim:int -> int -> bool
(** [orphaned t ~victim s]: after [victim]'s rollback, [s]'s state
    depends on more of [victim]'s ND than [victim]'s restored state
    retains. *)

(** {2 Bounded determinant log}

    Accounting for the logging protocols' determinant store, kept as
    per-owner counters [det_mark <= det_committed <= det_hi]
    (determinants retire in stamp order, so each live log is an
    interval), moved only by {!note_nd}, {!commit} and {!rollback}. *)

val set_det_cap : t -> int -> unit
(** Hard cap on the total live determinant count; [0] disables. *)

val det_cap : t -> int
val det_live : t -> int
val det_high_water : t -> int

val perturb : t -> salt:int -> unit
(** Environment perturbation for an escalated (rung L2) replay:
    reseed the kernel RNG stream (Random syscall results, jitter
    draws) from the base seed and [salt], and re-interleave each
    pending mailbox across senders — per-sender order is preserved, so
    the duplicate filter keeps absorbing rollback replays.
    Deterministic given (seed, salt). *)

val attach_net :
  ?policy:Ft_net.Policy.t ->
  seed:int ->
  t ->
  message Ft_net.Transport.t
(** Interpose an {!Ft_net.Transport} between send and receive: sends
    travel a seeded, policy-driven unreliable channel (loss, duplication,
    reordering, delay, partitions) with retransmission, acks and
    in-order reassembly underneath the kernel's own [msg_seq] duplicate
    filter.  [policy] applies to every link.  Frames land in mailboxes
    when the engine pumps the transport.  Without this call the kernel's
    reliable path is untouched, byte for byte. *)

val net : t -> message Ft_net.Transport.t option
(** The attached transport, if any — the engine pumps it and consults
    reachability for 2PC timeouts. *)

val set_net : t -> ?base:int -> message Ft_net.Transport.t -> unit
(** Install a transport owned by someone else — the multi-tenant
    scheduler's shared transport.  This kernel's processes occupy the
    global pid range [base, base + nprocs) on it; the transport's
    [deliver] callback must route arrivals back through
    {!deliver_net}. *)

val net_base : t -> int
(** This kernel's offset into the (shared) transport pid space; 0 for a
    privately attached transport. *)

val deliver_net : t -> at:int -> dst:int -> message -> unit
(** Complete a transport delivery into local pid [dst]'s mailbox,
    stamping the arrival time: the [deliver] callback of the transport
    {!attach_net} creates, and of the shared transport's routing. *)

val service :
  t -> pid:int -> now:int -> a0:int -> a1:int -> Ft_vm.Syscall.t -> result
(** Service one syscall at local time [now] with argument registers. *)

val syscall_count : t -> Ft_vm.Syscall.t -> int
(** How often a syscall was serviced; OS fault injection targets the
    kernel paths the workload exercises. *)

val file_length : t -> int -> int -> int
(** [file_length t pid name] — words written to the named file. *)

val file_word : t -> int -> int -> int -> int option
