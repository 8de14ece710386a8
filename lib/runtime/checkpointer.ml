(** Discount Checking: transparent full-process checkpoints (paper §3).

    Each process's address space lives (logically) in a Vista segment
    backed by Rio reliable memory.  Vista traps updates copy-on-write and
    keeps before-images in a persistent undo log; taking a checkpoint
    amounts to copying the register file, atomically discarding the undo
    log, and resetting page protections.  We charge exactly those costs:
    a per-checkpoint base, a trap-plus-copy cost per page dirtied since
    the last checkpoint, and a per-word copy cost for the register file,
    live stack and kernel state.

    Everything a restore needs — committed heap image, stack, machine
    metadata AND the serialized kernel state — lives in the Rio region,
    so {!restore} is a pure function of the persisted words: a crash at
    any word write during {!commit} leaves a region from which recovery
    reconstructs exactly the previous checkpoint.  The crash-point
    torture harness ({!Ft_harness.Torture}) checks this exhaustively.

    DC-disk is the same mechanism with the committed image written as a
    redo log synchronously to disk; its per-checkpoint cost is dominated
    by the disk access time ({!Ft_stablemem.Disk}). *)

type medium =
  | Reliable_memory            (* Rio: memory-speed commits *)
  | Disk of Ft_stablemem.Disk.t  (* DC-disk: synchronous redo log *)

(* The charged cost model. *)
let base_ns = 25_000      (* fixed per checkpoint: register copy, log reset *)
let page_trap_ns = 4_000  (* COW page-protection trap, per dirty page *)
let word_copy_ns = 2      (* memory copy, per word *)
let kstate_words = 64     (* accounted size of saved kernel state *)

(* Per-process persistent area.  Region layout (all offsets fixed at
   creation):

     [0, heap_words)                 committed heap image
     [stack_base, meta_base)         committed stack
     [meta_base, kstate_base)        machine metadata (regs, pc, sp, ...)
     [kstate_base, data_words)       kernel state: [len; word_0 ...]
     [data_words, size)              Vista's persisted undo log

   Everything mutable about a slot is region words — the OCaml record is
   pure layout, so a slot rebuilt over an old region (simulating a
   process that lost its heap in a crash) restores identically. *)
(* One archived committed generation, for deep rollback.  The kernel
   state is held serialized (the same pure word form the region uses) so
   the archive shares no mutable structure with the live kernel. *)
type gen = {
  g_snap : Ft_vm.Machine.snapshot;
  g_kwords : int array;
  g_out_seq : int;
      (* visible outputs released as of this generation: restored with it
         so the sequenced egress channel can deduplicate replays *)
}

type slot = {
  vista : Ft_stablemem.Vista.t;
  heap_words : int;
  stack_base : int;
  meta_base : int;
  kstate_base : int;
  kstate_cap : int;          (* payload words available after the length *)
  (* Per-slot scratch buffers: [commit] stages one page / the metadata /
     the serialized kernel state here instead of allocating fresh arrays
     every checkpoint. *)
  page_buf : int array;
  meta_buf : int array;
  kstate_buf : int array;
  mutable archive : gen list;  (* newest first, length <= history *)
}

type t = {
  medium : medium;
  slots : slot array;
  history : int;
      (* committed generations kept for {!rollback}; 0 = off (default),
         and the hot path stays allocation-free *)
  excluded : int -> bool;
      (* §2.6: pages of recomputable state the application chose not to
         checkpoint; their contents are lost at recovery *)
}

let meta_words = Ft_vm.Instr.num_regs + 6

(* The undo log must hold the worst-case transaction: every heap page
   dirty, the full stack, the metadata, the kernel state and the commit
   record, each with its [off; len] record header. *)
let log_area_words ~heap_words ~stack_words ~page_size ~kstate_cap =
  let npages = (heap_words + page_size - 1) / page_size in
  Ft_stablemem.Vista.log_overhead_words
  + Ft_stablemem.Vista.record_words ~len:(npages * page_size)
  + ((npages - 1) * 2)     (* page records vs one big record: extra headers *)
  + Ft_stablemem.Vista.record_words ~len:stack_words
  + Ft_stablemem.Vista.record_words ~len:meta_words
  + Ft_stablemem.Vista.record_words ~len:(1 + kstate_cap)
  + Ft_stablemem.Vista.record_words ~len:1  (* commits-counter record *)

let create ?(excluded = fun _ -> false)
    ?(page_size = 64) ?(history = 0) ~medium ~nprocs ~heap_words
    ~stack_words () =
  if page_size <= 0 then invalid_arg "Checkpointer.create: bad page_size";
  (* Kernel state payload: a handful of scalars, one pair per peer
     process, one triple per open file (the limit starts at 16 and grows
     a little at each resource expansion — 128 is comfortably past any
     run's reach). *)
  let kstate_cap = 9 + (2 * nprocs) + (3 * 128) in
  let make_slot _ =
    let stack_base = heap_words in
    let meta_base = stack_base + stack_words in
    let kstate_base = meta_base + meta_words in
    let data_words = kstate_base + 1 + kstate_cap in
    let size =
      data_words + log_area_words ~heap_words ~stack_words ~page_size ~kstate_cap
    in
    let region = Ft_stablemem.Rio.create ~size in
    {
      vista = Ft_stablemem.Vista.create ~data_words region;
      heap_words;
      stack_base;
      meta_base;
      kstate_base;
      kstate_cap;
      page_buf = Array.make page_size 0;
      meta_buf = Array.make meta_words 0;
      kstate_buf = Array.make (1 + kstate_cap) 0;
      archive = [];
    }
  in
  { medium; slots = Array.init nprocs make_slot; history; excluded }

let vista t ~pid = t.slots.(pid).vista

let checkpoints t ~pid = Ft_stablemem.Vista.commits t.slots.(pid).vista

let has_checkpoint t ~pid = checkpoints t ~pid > 0

(* Everything but the heap, into the slot's open transaction: the live
   stack prefix (straight from the machine's stack array), the machine
   metadata (staged in the slot's scratch buffer) and the kernel-state
   words (so restore needs nothing but the region), in that order — the
   torture crash points index these writes.  Returns the stack words. *)
let write_machine s ~(machine : Ft_vm.Machine.t) ~kwords =
  let v = s.vista in
  let sp = machine.Ft_vm.Machine.sp in
  if sp > 0 then
    Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.stack_base
      ~src:machine.Ft_vm.Machine.stack ~spos:0 ~len:sp;
  let nregs = Ft_vm.Instr.num_regs in
  let regs : int array = machine.Ft_vm.Machine.regs in
  for i = 0 to nregs - 1 do s.meta_buf.(i) <- regs.(i) done;
  s.meta_buf.(nregs) <- Ft_vm.Machine.pc machine;
  s.meta_buf.(nregs + 1) <- sp;
  s.meta_buf.(nregs + 2) <- machine.Ft_vm.Machine.fp;
  s.meta_buf.(nregs + 3) <- Ft_vm.Machine.icount machine;
  s.meta_buf.(nregs + 4) <- machine.Ft_vm.Machine.signal_handler;
  s.meta_buf.(nregs + 5) <- (if machine.Ft_vm.Machine.in_signal then 1 else 0);
  Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.meta_base ~src:s.meta_buf
    ~spos:0 ~len:meta_words;
  let klen = Array.length kwords in
  if klen > s.kstate_cap then
    invalid_arg "Checkpointer.commit: kernel state exceeds its region area";
  s.kstate_buf.(0) <- klen;
  for i = 0 to klen - 1 do s.kstate_buf.(1 + i) <- kwords.(i) done;
  Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.kstate_base
    ~src:s.kstate_buf ~spos:0 ~len:(1 + klen);
  sp

(* Take a checkpoint of [machine] (incremental in its dirty pages) and the
   kernel state; returns the simulated cost in nanoseconds.

   The persisted transaction is word-granular: every range goes through
   Vista's diff mode, so only the words that actually changed since the
   last checkpoint are logged and stored (a page dirtied by one store
   costs one small run, not a whole page of log traffic).  The CHARGED
   cost is untouched: the ns model still charges a COW trap per dirty
   page and a copy per page word, exactly as Vista's page-granular COW
   on a real address space would — this function is the OCaml process's
   hot path, not the paper's cost model.  Its HOST cost follows the same
   rule as the paper's: it scales with the dirty pages and the changed
   words, never with the heap's size. *)
let commit ?(out_seq = 0) t ~pid ~(machine : Ft_vm.Machine.t) ~kstate =
  let s = t.slots.(pid) in
  let heap = Ft_vm.Machine.heap machine in
  let page_size = Ft_vm.Memory.page_size heap in
  let dirty =
    List.filter (fun p -> not (t.excluded p)) (Ft_vm.Memory.dirty_pages heap)
  in
  let v = s.vista in
  Ft_stablemem.Vista.begin_tx v;
  (* Heap: only pages dirtied since the last checkpoint, staged through
     the per-slot scratch page. *)
  List.iter
    (fun p ->
      Ft_vm.Memory.blit_page_into heap p s.page_buf;
      Ft_stablemem.Vista.write_sub ~diff:true v ~off:(p * page_size)
        ~src:s.page_buf ~spos:0 ~len:page_size)
    dirty;
  let kw = Ft_os.Kernel.kstate_to_words kstate in
  let sp = write_machine s ~machine ~kwords:kw in
  Ft_stablemem.Vista.commit v;
  Ft_vm.Memory.clear_dirty heap;
  if t.history > 0 then begin
    let g =
      { g_snap = Ft_vm.Machine.snapshot machine; g_kwords = kw;
        g_out_seq = out_seq }
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    s.archive <- take t.history (g :: s.archive)
  end;
  let ndirty = List.length dirty in
  let words = (ndirty * page_size) + sp + meta_words + kstate_words in
  match t.medium with
  | Reliable_memory ->
      base_ns + (ndirty * page_trap_ns) + (words * word_copy_ns)
  | Disk d ->
      (* COW traps still happen; the synchronous log write dominates. *)
      base_ns + (ndirty * page_trap_ns)
      + Ft_stablemem.Disk.commit_cost d ~words

(* Pessimistic logging of an ND event's result: the record must be stable
   before the event's effects can propagate, so on DC-disk each log write
   is a synchronous disk access (the reason the -LOG protocols still pay
   double-digit overheads on DC-disk in Figure 8). *)
let log_cost t ~words =
  match t.medium with
  | Reliable_memory -> 1_000 + (words * word_copy_ns)
  | Disk d -> Ft_stablemem.Disk.write_cost d ~words

(* Restore [machine] (and return the kernel state) from the last
   checkpoint, purely from region words.  Returns the simulated recovery
   cost. *)
let restore t ~pid ~(machine : Ft_vm.Machine.t) =
  let s = t.slots.(pid) in
  if not (has_checkpoint t ~pid) then
    invalid_arg "Checkpointer.restore: no checkpoint";
  (* A crash mid-commit leaves a published undo log; Vista recovery rolls
     it back to the previous checkpoint. *)
  Ft_stablemem.Vista.recover s.vista;
  let region = Ft_stablemem.Vista.region s.vista in
  let heap = Ft_stablemem.Rio.sub region ~off:0 ~len:s.heap_words in
  let meta = Ft_stablemem.Rio.sub region ~off:s.meta_base ~len:meta_words in
  let nregs = Ft_vm.Instr.num_regs in
  let sp = meta.(nregs + 1) in
  let stack = Ft_stablemem.Rio.sub region ~off:s.stack_base ~len:sp in
  let snap =
    {
      Ft_vm.Machine.s_pc = meta.(nregs);
      s_regs = Array.sub meta 0 nregs;
      s_stack = stack;
      s_sp = sp;
      s_fp = meta.(nregs + 2);
      s_heap = heap;
      s_icount = meta.(nregs + 3);
      s_signal_handler = meta.(nregs + 4);
      s_in_signal = meta.(nregs + 5) = 1;
    }
  in
  Ft_vm.Machine.restore machine snap;
  let klen = Ft_stablemem.Rio.read region s.kstate_base in
  if klen < 0 || klen > s.kstate_cap then
    invalid_arg "Checkpointer.restore: corrupt kernel state";
  let kstate =
    Ft_os.Kernel.kstate_of_words
      (Ft_stablemem.Rio.sub region ~off:(s.kstate_base + 1) ~len:klen)
  in
  let words = s.heap_words + sp + meta_words + kstate_words in
  let cost =
    match t.medium with
    | Reliable_memory -> base_ns + (words * word_copy_ns)
    | Disk d -> Ft_stablemem.Disk.write_cost d ~words
  in
  (kstate, cost)

let history_depth t ~pid = List.length t.slots.(pid).archive

(* Deep rollback (escalation rung L1): deliberately abandon the last
   [back] committed generations and reinstate an earlier one.  The
   archived machine image is restored and then re-committed IN FULL into
   the Vista region — every heap page, the stack, the metadata and the
   kernel state — as one transaction, so subsequent incremental commits
   and restores see a region indistinguishable from one that had simply
   committed that generation last.  The full transaction is exactly the
   worst case [log_area_words] is sized for, and a crash at any word of
   it recovers to the pre-rollback generation: Consistency is never at
   risk, only whose work is lost. *)
let rollback t ~pid ~(machine : Ft_vm.Machine.t) ~back =
  let s = t.slots.(pid) in
  if back < 1 then invalid_arg "Checkpointer.rollback: back < 1";
  match List.nth_opt s.archive back with
  | None -> None
  | Some g ->
      (* A crash may have interrupted a commit: roll its partial
         transaction back first, as restore does. *)
      Ft_stablemem.Vista.recover s.vista;
      Ft_vm.Machine.restore machine g.g_snap;
      let heap = Ft_vm.Machine.heap machine in
      let page_size = Ft_vm.Memory.page_size heap in
      let npages = (s.heap_words + page_size - 1) / page_size in
      let v = s.vista in
      Ft_stablemem.Vista.begin_tx v;
      for p = 0 to npages - 1 do
        if not (t.excluded p) then begin
          Ft_vm.Memory.blit_page_into heap p s.page_buf;
          Ft_stablemem.Vista.write_sub ~diff:true v ~off:(p * page_size)
            ~src:s.page_buf ~spos:0 ~len:page_size
        end
      done;
      let sp = write_machine s ~machine ~kwords:g.g_kwords in
      Ft_stablemem.Vista.commit v;
      Ft_vm.Memory.clear_dirty heap;
      (* Drop the sacrificed generations; the reinstated one stays
         newest (it matches the region again). *)
      let rec drop n l = if n = 0 then l else
        match l with [] -> [] | _ :: rest -> drop (n - 1) rest
      in
      s.archive <- drop back s.archive;
      let kstate = Ft_os.Kernel.kstate_of_words g.g_kwords in
      (* Charged cost: one full restore plus one worst-case commit —
         rung L1 is deliberately expensive. *)
      let words = s.heap_words + sp + meta_words + kstate_words in
      let cost =
        match t.medium with
        | Reliable_memory ->
            (2 * base_ns)
            + (npages * page_trap_ns)
            + (2 * words * word_copy_ns)
        | Disk d ->
            base_ns
            + (npages * page_trap_ns)
            + (2 * Ft_stablemem.Disk.write_cost d ~words)
      in
      Some (kstate, cost, g.g_out_seq)
