(** The virtual machine interpreter.

    A machine executes instructions until it halts, crashes, or reaches a
    system call; syscalls are serviced by the caller (the execution
    engine, which owns the kernel model), keeping this module free of OS
    policy.  Crash conditions — out-of-bounds memory access, division by
    zero, wild jumps, failed consistency checks — are the {e crash
    events} of the paper's model: transitions into a state from which the
    process cannot continue (§2.5).

    There is one interpreter loop, [exec] under {!step_n}.  It keeps the
    hot state in registers and must stay in this module: the dev profile
    compiles with [-opaque], so nothing from [Instr] or [Memory] inlines
    into it.  It runs the sequences {!Asm} emits for every expression
    temporary without a dispatch per instruction: after a [Const]/[Sload]
    it tests for the [Push] that spills it, after a [Push] for the
    [Const|Sload; Pop] pair that loads the second operand and unspills
    the first, and after a [Cmp d] for the [Jz d] that branches on it.
    A fused instruction keeps its own semantics, budget unit and count;
    a sequence is fused only when the budget covers it and nothing in it
    can crash, and otherwise the loop dispatches at that pc as usual.
    It reads [code] live, with no decoded copy, so code mutated in place
    runs as written.  The per-instruction interpreter it replaced lives
    on in [test/test_vm.ml] as the reference it is checked against. *)

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
   constructors). *)
let[@inline] is_running t =
  match t.status with Running -> true | _ -> false

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

(* Typed [int]: left polymorphic, every comparison is a C call. *)
let[@inline] cmp op (a : int) (b : int) =
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

(* Every register operand is checked with one mask test against this
   bound, so the loop below can read and write [regs] unsafely. *)
let () = assert (Instr.num_regs = 16)

(* End of a slice: write the carried registers back. *)
let stop t pc sp fp left =
  t.pc <- pc;
  t.sp <- sp;
  t.fp <- fp;
  left

(* The exits below write [status], a call to [caml_modify]; kept out of
   line so that no call sits in the loop to make it spill. *)
let[@inline never] crash_stop t pc sp fp left reason =
  crash t reason;
  stop t pc sp fp left

let[@inline never] halt t pc sp fp left =
  t.status <- Halted;
  stop t pc sp fp left

(* The crash of an instruction whose operands failed the mask test names
   the first bad one in operand order. *)
let[@inline never] bad_register t pc sp fp left a b c =
  let ok r = r land lnot 15 = 0 in
  let r = if not (ok a) then a else if not (ok b) then b else c in
  crash_stop t pc sp fp left (Bad_register r)

(* pc stays past the [Sys]: see {!rewind_syscall}. *)
let[@inline never] syscall t pc sp fp left s =
  t.status <- Need_syscall s;
  stop t pc sp fp left

(* The interpreter loop.  [pc], [sp], [fp] and the budget [left] ride in
   arguments, so they live in machine registers; [t] sees them only when
   the slice ends (budget spent, crash, [Halt], [Sys]) or around a frame
   instruction.  Returns the budget left; the caller counts [icount].
   Every crash consumes its instruction except a wild pc.  Whatever
   calls out (heap access, status writes, frame instructions, division)
   sits in a function the loop tail-calls, so no call forces the carried
   state onto the stack.  Top level and closure-free: a slice allocates
   nothing.  The fused sequences (see the top of this file) are tested
   for with one constructor match each, not a second dispatch. *)
let rec exec t pc sp fp left =
  let code = t.code in
  if left <= 0 then stop t pc sp fp left
  else if pc < 0 || pc >= Array.length code then
    crash_stop t pc sp fp left (Bad_jump pc)
  else
    let left = left - 1 and next = pc + 1 in
    let regs = t.regs and stack = t.stack in
    match Array.unsafe_get code pc with
    | Instr.Push r ->
        if r land lnot 15 <> 0 then bad_register t next sp fp left r r r
        else if sp >= Array.length stack then
          crash_stop t next sp fp left Stack_overflow
        else begin
          Array.unsafe_set stack sp (Array.unsafe_get regs r);
          operand t next (sp + 1) fp left
        end
    | Instr.Pop r ->
        if r land lnot 15 <> 0 then bad_register t next sp fp left r r r
        else if sp <= 0 then crash_stop t next sp fp left Stack_underflow
        else begin
          let sp = sp - 1 in
          Array.unsafe_set regs r (Array.unsafe_get stack sp);
          exec t next sp fp left
        end
    | Instr.Sload (d, off) ->
        let i = fp + off in
        if d land lnot 15 <> 0 then bad_register t next sp fp left d d d
        else if i < 0 || i >= Array.length stack then
          crash_stop t next sp fp left Stack_overflow
        else begin
          Array.unsafe_set regs d (Array.unsafe_get stack i);
          (* Fused [Push]: the spill of an operand. *)
          if left <= 0 || next >= Array.length code then
            exec t next sp fp left
          else
            match Array.unsafe_get code next with
            | Instr.Push r when r land lnot 15 = 0 && sp < Array.length stack ->
                Array.unsafe_set stack sp (Array.unsafe_get regs r);
                operand t (next + 1) (sp + 1) fp (left - 1)
            | _ -> exec t next sp fp left
        end
    | Instr.Sstore (off, s) ->
        let i = fp + off in
        if s land lnot 15 <> 0 then bad_register t next sp fp left s s s
        else if i < 0 || i >= Array.length stack then
          crash_stop t next sp fp left Stack_overflow
        else begin
          Array.unsafe_set stack i (Array.unsafe_get regs s);
          exec t next sp fp left
        end
    | Instr.Const (d, v) ->
        if d land lnot 15 <> 0 then bad_register t next sp fp left d d d
        else begin
          Array.unsafe_set regs d v;
          (* Fused [Push], as after [Sload]. *)
          if left <= 0 || next >= Array.length code then
            exec t next sp fp left
          else
            match Array.unsafe_get code next with
            | Instr.Push r when r land lnot 15 = 0 && sp < Array.length stack ->
                Array.unsafe_set stack sp (Array.unsafe_get regs r);
                operand t (next + 1) (sp + 1) fp (left - 1)
            | _ -> exec t next sp fp left
        end
    | Instr.Mov (d, s) ->
        if (d lor s) land lnot 15 <> 0 then
          bad_register t next sp fp left d s s
        else begin
          Array.unsafe_set regs d (Array.unsafe_get regs s);
          exec t next sp fp left
        end
    | Instr.Bin (op, d, a, b) -> (
        if (d lor a lor b) land lnot 15 <> 0 then
          bad_register t next sp fp left d a b
        else
          let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
          match op with
          | Instr.Div | Instr.Mod -> divide t next sp fp left op d x y
          | _ ->
              Array.unsafe_set regs d
                (match op with
                | Instr.Add -> x + y
                | Instr.Sub -> x - y
                | Instr.Mul -> x * y
                | Instr.And -> x land y
                | Instr.Or -> x lor y
                | Instr.Xor -> x lxor y
                | Instr.Shl -> x lsl (y land 62)
                | Instr.Shr -> x asr (y land 62)
                | Instr.Div | Instr.Mod -> assert false);
              exec t next sp fp left)
    | Instr.Cmp (op, d, a, b) ->
        if (d lor a lor b) land lnot 15 <> 0 then
          bad_register t next sp fp left d a b
        else begin
          let c = cmp op (Array.unsafe_get regs a) (Array.unsafe_get regs b) in
          Array.unsafe_set regs d c;
          (* Fused [Jz d]: every [If]/[While] condition. *)
          if left <= 0 || next >= Array.length code then
            exec t next sp fp left
          else
            match Array.unsafe_get code next with
            | Instr.Jz (r, a) when r = d ->
                let left = left - 1 in
                if c <> 0 then exec t (next + 1) sp fp left
                else if a < 0 || a > Array.length code then
                  crash_stop t (next + 1) sp fp left (Bad_jump a)
                else exec t a sp fp left
            | _ -> exec t next sp fp left
        end
    | Instr.Load (d, a) ->
        if (d lor a) land lnot 15 <> 0 then
          bad_register t next sp fp left d a a
        else load t next sp fp left d (Array.unsafe_get regs a)
    | Instr.Store (a, s) ->
        if (a lor s) land lnot 15 <> 0 then
          bad_register t next sp fp left a s s
        else
          store t next sp fp left (Array.unsafe_get regs a)
            (Array.unsafe_get regs s)
    | Instr.Jmp a ->
        if a < 0 || a > Array.length code then
          crash_stop t next sp fp left (Bad_jump a)
        else exec t a sp fp left
    | Instr.Jz (r, a) ->
        if r land lnot 15 <> 0 then bad_register t next sp fp left r r r
        else if Array.unsafe_get regs r <> 0 then
          exec t next sp fp left
        else if a < 0 || a > Array.length code then
          crash_stop t next sp fp left (Bad_jump a)
        else exec t a sp fp left
    | Instr.Jnz (r, a) ->
        if r land lnot 15 <> 0 then bad_register t next sp fp left r r r
        else if Array.unsafe_get regs r = 0 then
          exec t next sp fp left
        else if a < 0 || a > Array.length code then
          crash_stop t next sp fp left (Bad_jump a)
        else exec t a sp fp left
    | Instr.Check r ->
        if r land lnot 15 <> 0 then bad_register t next sp fp left r r r
        else if Array.unsafe_get regs r = 0 then
          crash_stop t next sp fp left (Check_failed pc)
        else exec t next sp fp left
    | Instr.Nop -> exec t next sp fp left
    | Instr.Halt -> halt t next sp fp left
    | Instr.Sys s -> syscall t next sp fp left s
    | (Instr.Call _ | Instr.Ret | Instr.Enter _ | Instr.Leave | Instr.Sigret)
      as frame ->
        framed t next sp fp left frame

(* After a [Push] at [pc - 1] (so [sp >= 1]): the fused pair
   [Const|Sload d; Pop s] of [Asm.expr]'s [Bin]/[Cmp], its writes in
   program order so that [s] wins when [d = s].  Falls back to plain
   dispatch at [pc] unless both fit the budget and neither can crash. *)
and operand t pc sp fp left =
  let code = t.code in
  if left < 2 || pc + 1 >= Array.length code then exec t pc sp fp left
  else
    match Array.unsafe_get code (pc + 1) with
    | Instr.Pop s when s land lnot 15 = 0 -> (
        let regs = t.regs and stack = t.stack in
        match Array.unsafe_get code pc with
        | Instr.Const (d, v) when d land lnot 15 = 0 ->
            Array.unsafe_set regs d v;
            Array.unsafe_set regs s (Array.unsafe_get stack (sp - 1));
            exec t (pc + 2) (sp - 1) fp (left - 2)
        | Instr.Sload (d, off)
          when d land lnot 15 = 0 && fp + off >= 0
               && fp + off < Array.length stack ->
            Array.unsafe_set regs d (Array.unsafe_get stack (fp + off));
            Array.unsafe_set regs s (Array.unsafe_get stack (sp - 1));
            exec t (pc + 2) (sp - 1) fp (left - 2)
        | _ -> exec t pc sp fp left)
    | _ -> exec t pc sp fp left

and divide t pc sp fp left op d x y =
  if y = 0 then crash_stop t pc sp fp left Division_by_zero
  else begin
    Array.unsafe_set t.regs d
      (match op with Instr.Div -> x / y | _ -> x mod y);
    exec t pc sp fp left
  end

and load t pc sp fp left d addr =
  match Memory.read t.heap addr with
  | v ->
      Array.unsafe_set t.regs d v;
      exec t pc sp fp left
  | exception Memory.Out_of_bounds addr ->
      crash_stop t pc sp fp left (Heap_out_of_bounds addr)

and store t pc sp fp left addr v =
  match Memory.write t.heap addr v with
  | () -> exec t pc sp fp left
  | exception Memory.Out_of_bounds addr ->
      crash_stop t pc sp fp left (Heap_out_of_bounds addr)

(* A frame instruction runs on the state written back to [t], through
   the [push]/[pop]/[jump] it shares with signal delivery; the loop
   resumes from [t] unless it crashed. *)
and framed t pc sp fp left frame =
  t.pc <- pc;
  t.sp <- sp;
  t.fp <- fp;
  (match frame with
  | Instr.Call a ->
      push t t.pc;
      if is_running t then jump t a
  | Instr.Ret ->
      let a = pop t in
      if is_running t then jump t a
  | Instr.Enter k ->
      push t t.fp;
      if is_running t then begin
        t.fp <- t.sp;
        (* A negative frame would take sp below 0, where [push] stores
           unchecked. *)
        if k < 0 then crash t Stack_underflow
        else if t.sp + k > Array.length t.stack then crash t Stack_overflow
        else
          (* Locals are NOT cleared: like a real stack, a frame starts
             with stale garbage from earlier calls, so a
             lost-initialization fault reads junk immediately. *)
          t.sp <- t.sp + k
      end
  | Instr.Leave ->
      if t.fp > t.sp || t.fp < 1 then crash t Stack_underflow
      else begin
        t.sp <- t.fp;
        let old_fp = pop t in
        if is_running t then t.fp <- old_fp
      end
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
  | _ -> assert false);
  if is_running t then exec t t.pc t.sp t.fp left else left

(* With an [on_execute] hook, one instruction at a time: the pc check,
   the hook with the pc about to execute, then a one-instruction run of
   the same loop.  [icount] is counted here, so a hook reads it current. *)
let rec hooked t left =
  if left <= 0 || not (is_running t) then left
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    crash t (Bad_jump t.pc);
    left
  end
  else begin
    (match t.on_execute with Some f -> f t.pc | None -> ());
    t.icount <- t.icount + 1;
    ignore (exec t t.pc t.sp t.fp 1 : int);
    hooked t (left - 1)
  end

(* Execute up to [budget] instructions, stopping early at the first
   status change.  Returns the number of instructions actually executed
   (a crash on a wild pc consumes no instruction).  On [Sys s] the
   status becomes [Need_syscall s] with pc pointing *past* the Sys
   instruction: the engine rewinds to it ([rewind_syscall]), services
   the call, writes result registers, and steps over it
   ([advance_past_syscall]). *)
let step_n t budget =
  if not (is_running t) then 0
  else
    match t.on_execute with
    | Some _ -> budget - hooked t budget
    | None ->
        let n = budget - exec t t.pc t.sp t.fp budget in
        t.icount <- t.icount + n;
        n

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
