(** The virtual machine interpreter.

    A machine executes instructions until it halts, crashes, or reaches a
    system call; syscalls are serviced by the caller (the execution
    engine, which owns the kernel model), keeping this module free of OS
    policy.  Crash conditions — out-of-bounds memory access, division by
    zero, wild jumps, failed consistency checks — are the {e crash
    events} of the paper's model: transitions into a state from which the
    process cannot continue (§2.5). *)

type crash_reason =
  | Heap_out_of_bounds of int
  | Stack_overflow
  | Stack_underflow
  | Division_by_zero
  | Bad_jump of int
  | Bad_register of int
  | Check_failed of int        (* pc of the failed consistency check *)
  | Killed                     (* external stop failure *)

type status =
  | Running
  | Need_syscall of Syscall.t  (* stopped just before servicing [Sys] *)
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
  mutable icount : int;              (* dynamic instructions executed *)
  mutable signal_handler : int;      (* code address, -1 if none *)
  mutable in_signal : bool;
  (* Observation hook for fault injectors: called with the static pc of
     every instruction executed. *)
  mutable on_execute : (int -> unit) option;
}

let create ?(stack_size = 4096) ?(heap_size = 65536) ?(page_size = 64) code =
  {
    code;
    pc = 0;
    regs = Array.make Instr.num_regs 0;
    stack = Array.make stack_size 0;
    sp = 0;
    fp = 0;
    heap = Memory.create ~page_size ~size:heap_size ();
    status = Running;
    icount = 0;
    signal_handler = -1;
    in_signal = false;
    on_execute = None;
  }

let status t = t.status
let heap t = t.heap
let icount t = t.icount
let pc t = t.pc

let crash t reason = t.status <- Crashed reason

let kill t = crash t Killed

(* Constant-time status test.  [t.status = Running] would go through
   polymorphic equality (a C call: [status] has non-constant
   constructors), which the interpreter loop pays several times per
   instruction. *)
let[@inline] is_running t =
  match t.status with Running -> true | _ -> false

(* The explicit range checks below subsume the bounds check the safe
   array operations would repeat, so the hot accesses are unsafe_. *)
let reg t r =
  if r < 0 || r >= Instr.num_regs then (crash t (Bad_register r); 0)
  else Array.unsafe_get t.regs r

let set_reg t r v =
  if r < 0 || r >= Instr.num_regs then crash t (Bad_register r)
  else Array.unsafe_set t.regs r v

let stack_slot t i =
  if i < 0 || i >= t.sp then None else Some t.stack.(i)

let set_stack_slot t i v =
  if i >= 0 && i < t.sp then t.stack.(i) <- v

let live_stack_size t = t.sp

let push t v =
  if t.sp >= Array.length t.stack then crash t Stack_overflow
  else begin
    Array.unsafe_set t.stack t.sp v;
    t.sp <- t.sp + 1
  end

let pop t =
  if t.sp <= 0 then (crash t Stack_underflow; 0)
  else begin
    t.sp <- t.sp - 1;
    Array.unsafe_get t.stack t.sp
  end

let jump t a =
  if a < 0 || a > Array.length t.code then crash t (Bad_jump a)
  else t.pc <- a

let cmp op a b =
  let r =
    match op with
    | Instr.Lt -> a < b
    | Instr.Le -> a <= b
    | Instr.Gt -> a > b
    | Instr.Ge -> a >= b
    | Instr.Eq -> a = b
    | Instr.Ne -> a <> b
  in
  if r then 1 else 0

(* Execute exactly one instruction.  On [Sys s], sets status to
   [Need_syscall s] and leaves pc pointing *past* the Sys instruction:
   the engine rewinds to it ([rewind_syscall]), services the call,
   writes result registers, and steps over it ([advance_past_syscall]). *)
let step t =
  match t.status with
  | Halted | Crashed _ | Need_syscall _ -> ()
  | Running ->
      if t.pc < 0 || t.pc >= Array.length t.code then crash t (Bad_jump t.pc)
      else begin
        let at = t.pc in
        (match t.on_execute with Some f -> f at | None -> ());
        t.icount <- t.icount + 1;
        t.pc <- t.pc + 1;
        match Array.unsafe_get t.code at with
        | Instr.Nop -> ()
        | Instr.Halt -> t.status <- Halted
        | Instr.Const (d, n) -> set_reg t d n
        | Instr.Mov (d, s) -> set_reg t d (reg t s)
        | Instr.Bin (op, d, a, b) ->
            (* Operand order mirrors the former [binop op (reg t a)
               (reg t b)] call (right-to-left); the dispatch is inlined
               so arithmetic never allocates an option. *)
            let y = reg t b in
            let x = reg t a in
            (match op with
            | Instr.Add -> set_reg t d (x + y)
            | Instr.Sub -> set_reg t d (x - y)
            | Instr.Mul -> set_reg t d (x * y)
            | Instr.Div ->
                if y = 0 then crash t Division_by_zero
                else set_reg t d (x / y)
            | Instr.Mod ->
                if y = 0 then crash t Division_by_zero
                else set_reg t d (x mod y)
            | Instr.And -> set_reg t d (x land y)
            | Instr.Or -> set_reg t d (x lor y)
            | Instr.Xor -> set_reg t d (x lxor y)
            | Instr.Shl -> set_reg t d (x lsl (y land 62))
            | Instr.Shr -> set_reg t d (x asr (y land 62)))
        | Instr.Cmp (op, d, a, b) -> set_reg t d (cmp op (reg t a) (reg t b))
        | Instr.Load (d, a) -> (
            match Memory.read t.heap (reg t a) with
            | v -> set_reg t d v
            | exception Memory.Out_of_bounds addr ->
                crash t (Heap_out_of_bounds addr))
        | Instr.Store (a, s) -> (
            match Memory.write t.heap (reg t a) (reg t s) with
            | () -> ()
            | exception Memory.Out_of_bounds addr ->
                crash t (Heap_out_of_bounds addr))
        | Instr.Push r -> push t (reg t r)
        | Instr.Pop r ->
            let v = pop t in
            if is_running t then set_reg t r v
        | Instr.Sload (d, off) ->
            let i = t.fp + off in
            if i < 0 || i >= Array.length t.stack then crash t Stack_overflow
            else set_reg t d (Array.unsafe_get t.stack i)
        | Instr.Sstore (off, s) ->
            let i = t.fp + off in
            if i < 0 || i >= Array.length t.stack then crash t Stack_overflow
            else Array.unsafe_set t.stack i (reg t s)
        | Instr.Jmp a -> jump t a
        | Instr.Jz (r, a) -> if reg t r = 0 then jump t a
        | Instr.Jnz (r, a) -> if reg t r <> 0 then jump t a
        | Instr.Call a ->
            push t t.pc;
            if is_running t then jump t a
        | Instr.Ret ->
            let a = pop t in
            if is_running t then jump t a
        | Instr.Enter n ->
            push t t.fp;
            if is_running t then begin
              t.fp <- t.sp;
              if t.sp + n > Array.length t.stack then crash t Stack_overflow
              else
                (* Locals are NOT cleared: like a real stack, a frame
                   starts with stale garbage from earlier calls, so a
                   lost-initialization fault reads junk immediately. *)
                t.sp <- t.sp + n
            end
        | Instr.Leave ->
            if t.fp > t.sp || t.fp < 1 then crash t Stack_underflow
            else begin
              t.sp <- t.fp;
              let old_fp = pop t in
              if is_running t then t.fp <- old_fp
            end
        | Instr.Sys s -> t.status <- Need_syscall s
        | Instr.Check r ->
            if reg t r = 0 then crash t (Check_failed at)
        | Instr.Sigret ->
            (* Restore the register file pushed by [deliver_signal], then
               return to the interrupted pc. *)
            for r = Instr.num_regs - 1 downto 0 do
              let v = pop t in
              if is_running t then t.regs.(r) <- v
            done;
            if is_running t then begin
              let a = pop t in
              if is_running t then begin
                t.in_signal <- false;
                jump t a
              end
            end
      end

(* Execute up to [budget] instructions, stopping early at the first
   status change.  Behaviourally identical to calling {!step} in a loop,
   but the scheduler pays one call per slice instead of three
   cross-module calls (two of them polymorphic compares) per
   instruction.  Returns the number of instructions actually executed
   (a crash on a wild pc consumes no instruction, exactly as in
   {!step}). *)
let step_n t budget =
  let start = t.icount in
  while t.icount - start < budget && is_running t do
    step t
  done;
  t.icount - start

(* Rewind to the [Sys] instruction itself.  The engine does this as soon
   as it sees [Need_syscall]: the machine is then at a clean boundary, so
   a checkpoint taken before the event re-executes the syscall on
   recovery (commit-before semantics), and one taken after it resumes
   past it (commit-after semantics). *)
let rewind_syscall t =
  match t.status with
  | Need_syscall _ ->
      t.pc <- t.pc - 1;
      t.status <- Running
  | _ -> invalid_arg "Machine.rewind_syscall: no pending syscall"

(* Step over the [Sys] instruction once the engine has serviced it. *)
let advance_past_syscall t = t.pc <- t.pc + 1

(* Deliver a signal: push the interrupted pc and the whole register file,
   then transfer to the installed handler (whose epilogue is [Sigret]).
   Delivery timing is a transient ND event. *)
let deliver_signal t =
  if t.signal_handler >= 0 && is_running t && not t.in_signal then begin
    push t t.pc;
    for r = 0 to Instr.num_regs - 1 do
      if is_running t then push t t.regs.(r)
    done;
    if is_running t then begin
      t.in_signal <- true;
      jump t t.signal_handler
    end;
    is_running t
  end
  else false

(* --- checkpoint support ------------------------------------------------ *)

type snapshot = {
  s_code_len : int;          (* sanity: snapshots are per-program *)
  s_pc : int;
  s_regs : int array;
  s_stack : int array;       (* live prefix only *)
  s_sp : int;
  s_fp : int;
  s_heap : int array;
  s_icount : int;
  s_signal_handler : int;
  s_in_signal : bool;
}

let snapshot t =
  {
    s_code_len = Array.length t.code;
    s_pc = t.pc;
    s_regs = Array.copy t.regs;
    s_stack = Array.sub t.stack 0 t.sp;
    s_sp = t.sp;
    s_fp = t.fp;
    s_heap = Memory.snapshot t.heap;
    s_icount = t.icount;
    s_signal_handler = t.signal_handler;
    s_in_signal = t.in_signal;
  }

let restore t (s : snapshot) =
  t.pc <- s.s_pc;
  Array.blit s.s_regs 0 t.regs 0 Instr.num_regs;
  Array.blit s.s_stack 0 t.stack 0 s.s_sp;
  t.sp <- s.s_sp;
  t.fp <- s.s_fp;
  Memory.restore t.heap s.s_heap;
  t.icount <- s.s_icount;
  t.signal_handler <- s.s_signal_handler;
  t.in_signal <- s.s_in_signal;
  t.status <- Running
