(** The virtual machine interpreter.  Syscalls pause the machine for the
    engine to service; crash conditions (wild loads and stores, division
    by zero, bad jumps, failed consistency checks) are the crash events
    of the paper's model (§2.5).

    The state record is exposed: the execution engine and the fault
    injectors manipulate code, registers and hooks directly. *)

type crash_reason =
  | Heap_out_of_bounds of int
  | Stack_overflow
  | Stack_underflow
  | Division_by_zero
  | Bad_jump of int
  | Bad_register of int
  | Check_failed of int  (** pc of the failed consistency check *)
  | Killed  (** external stop failure *)

type status =
  | Running
  | Need_syscall of Syscall.t  (** paused just past a [Sys] instruction *)
  | Halted
  | Crashed of crash_reason

type t = {
  mutable code : Instr.t array;
  mutable pc : int;
  regs : int array;
  mutable stack : int array;
  mutable sp : int;
  mutable fp : int;
  heap : Memory.t;
  mutable status : status;
  mutable icount : int;  (** dynamic instructions executed *)
  mutable signal_handler : int;  (** code address, -1 when none *)
  mutable in_signal : bool;
  mutable on_execute : (int -> unit) option;
      (** observation hook: called with the static pc of every
          instruction executed (used by fault injectors) *)
}

val create :
  ?stack_size:int -> ?heap_size:int -> ?page_size:int -> Instr.t array -> t

val status : t -> status
val heap : t -> Memory.t
val icount : t -> int
val pc : t -> int

val crash : t -> crash_reason -> unit
val kill : t -> unit
(** An external stop failure. *)

val set_reg : t -> Instr.reg -> int -> unit
val stack_slot : t -> int -> int option
val set_stack_slot : t -> int -> int -> unit
val live_stack_size : t -> int

val cmp : Instr.cmp -> int -> int -> int
(** [cmp op a b] is 1 when [a op b] holds, else 0: what [Cmp] writes. *)

val step_n : t -> int -> int
(** [step_n t budget] executes up to [budget] instructions, stopping
    early at the first status change; returns the number executed.  A
    no-op unless [Running].  A [Sys] stops it with [Need_syscall] and pc
    just past the instruction.  Every crash consumes its instruction
    except a wild pc; a register operand outside [0 .. num_regs-1]
    crashes [Bad_register] and changes nothing else.  With an
    [on_execute] hook the hook sees each pc before its instruction runs.
    Without one, the sequences {!Asm} emits for expression temporaries
    ([Const|Sload; Push], [Push; Const|Sload; Pop], [Cmp d; Jz d]) run
    without a dispatch per instruction, each instruction with its own
    effects, budget unit and count, so no slice end, crash or jump into
    the middle of one can tell.  The reference semantics, one
    instruction at a time, is the interpreter in [test/test_vm.ml],
    which a property and a table of those sequences check this
    against. *)

val rewind_syscall : t -> unit
(** Point the machine back at the pending [Sys] instruction so a
    checkpoint taken now replays the event (commit-before semantics). *)

val advance_past_syscall : t -> unit
(** Step over the [Sys] instruction after servicing it. *)

val deliver_signal : t -> bool
(** Push the continuation and the register file, jump to the installed
    handler.  Returns [false] when no handler is installed, a handler is
    already running, or the machine is not [Running]. *)

type snapshot = {
  s_pc : int;
  s_regs : int array;
  s_stack : int array;  (** live prefix *)
  s_sp : int;
  s_fp : int;
  s_heap : int array;
  s_icount : int;
  s_signal_handler : int;
  s_in_signal : bool;
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

