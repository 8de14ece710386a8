(** Discount Checking: transparent full-process checkpoints (paper §3),
    incremental in the pages dirtied since the last commit, stored
    through Vista transactions in Rio reliable memory — or written as a
    synchronous redo log to disk (DC-disk).

    The whole committed image — heap, stack, machine metadata and
    serialized kernel state — lives in the per-process Rio region, as
    does Vista's undo log, so {!restore} is a pure function of the
    persisted words.  A crash at any single word write during {!commit}
    leaves a region that recovers to exactly the previous checkpoint. *)

type medium =
  | Reliable_memory  (** Rio: memory-speed commits *)
  | Disk of Ft_stablemem.Disk.t  (** DC-disk: synchronous redo log *)

type t

val create :
  ?excluded:(int -> bool) ->
  ?page_size:int ->
  ?history:int ->
  medium:medium ->
  nprocs:int ->
  heap_words:int ->
  stack_words:int ->
  unit ->
  t
(** [page_size] (default 64) must match the machines being checkpointed;
    it sizes the persisted undo log for the worst-case transaction
    (every page dirty).  [history] (default 0) keeps that many committed
    generations per process for {!rollback}; 0 disables the archive and
    leaves the commit hot path allocation-free. *)

val checkpoints : t -> pid:int -> int
(** Checkpoints taken, read from the persisted commits counter. *)

val vista : t -> pid:int -> Ft_stablemem.Vista.t
(** The per-process Vista segment — the fault-injection surface: its
    region's write hook sees every persisted word of a {!commit}. *)

(** [excluded] marks heap pages of recomputable state the application
    chooses not to checkpoint (§2.6: "reducing the comprehensiveness of
    the state saved"); their contents are lost at recovery and must be
    rebuilt by the application. *)

val commit :
  ?out_seq:int -> t -> pid:int -> machine:Ft_vm.Machine.t ->
  kstate:Ft_os.Kernel.kstate_snapshot -> int
(** Take a checkpoint; returns the simulated cost in nanoseconds.
    [out_seq] (default 0) is the count of visible outputs the process
    has released so far; it rides along in the rollback archive so the
    sequenced egress channel can rewind its replay cursor with the
    generation it reinstates. *)

val log_cost : t -> words:int -> int
(** Pessimistic logging of an ND event's result: the record must be
    stable before the event's effects propagate — a synchronous disk
    access on DC-disk, a memory write on Rio. *)

val restore :
  t -> pid:int -> machine:Ft_vm.Machine.t ->
  Ft_os.Kernel.kstate_snapshot * int
(** Roll the machine back to the last checkpoint, purely from region
    words (running Vista recovery first, in case the crash interrupted a
    commit); returns the kernel state to reinstall and the simulated
    recovery cost. *)

val history_depth : t -> pid:int -> int
(** Archived generations currently available to {!rollback} (0 unless
    [create] was given [~history]). *)

val rollback :
  t -> pid:int -> machine:Ft_vm.Machine.t -> back:int ->
  (Ft_os.Kernel.kstate_snapshot * int * int) option
(** Deep rollback (escalation rung L1): abandon the last [back >= 1]
    committed generations and reinstate the one [back] commits ago,
    re-committing it in full into the Vista region as one transaction —
    a crash at any word of it still recovers consistently.  Returns
    [None] when the archive holds fewer than [back + 1] generations
    (caller should fall back to a plain {!restore}); otherwise the
    kernel state to reinstall, the simulated cost (a full restore plus
    a worst-case commit) and the reinstated generation's released
    visible-output count. *)
