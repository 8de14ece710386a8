(* Unit tests for the VM: instruction semantics, the interpreter loop
   against a per-instruction reference, the Asm compiler, memory dirty
   tracking, and machine snapshot/restore. *)

let run_program ?(steps = 1_000_000) prog =
  let code = Ft_vm.Asm.compile prog in
  let m = Ft_vm.Machine.create ~heap_size:4096 code in
  ignore (Ft_vm.Machine.step_n m steps);
  (match Ft_vm.Machine.status m with
  | Ft_vm.Machine.Running -> failwith "program did not halt"
  | Ft_vm.Machine.Need_syscall _ ->
      failwith "unexpected syscall in pure program"
  | Ft_vm.Machine.Halted | Ft_vm.Machine.Crashed _ -> ());
  m

open Ft_vm.Asm

let check_status = Alcotest.(check bool)

let test_arith () =
  (* main: heap[0] := (7 + 3) * 4 - 5 *)
  let prog =
    program
      [
        func "main" []
          [ Set_heap (Int 0, (Int 7 +: Int 3) *: Int 4 -: Int 5) ];
      ]
  in
  let m = run_program prog in
  Alcotest.(check int) "arith result" 35
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 0)

let test_locals_and_loop () =
  (* sum of 1..10 via while loop *)
  let prog =
    program
      [
        func "main" []
          [
            Let ("i", Int 1);
            Let ("acc", Int 0);
            While
              ( Var "i" <=: Int 10,
                [ Set ("acc", Var "acc" +: Var "i");
                  Set ("i", Var "i" +: Int 1) ] );
            Set_heap (Int 1, Var "acc");
          ];
      ]
  in
  let m = run_program prog in
  Alcotest.(check int) "sum 1..10" 55
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 1)

let test_functions () =
  (* recursive factorial through the calling convention *)
  let prog =
    program
      [
        func "fact" [ "n" ]
          [
            If
              ( Var "n" <=: Int 1,
                [ Return (Int 1) ],
                [ Return (Var "n" *: Call ("fact", [ Var "n" -: Int 1 ])) ] );
          ];
        func "main" [] [ Set_heap (Int 2, Call ("fact", [ Int 6 ])) ];
      ]
  in
  let m = run_program prog in
  Alcotest.(check int) "6!" 720 (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 2)

let test_if_else_nested () =
  let prog =
    program
      [
        func "classify" [ "x" ]
          [
            If
              ( Var "x" <: Int 0,
                [ Return (Int (-1)) ],
                [ If (Var "x" =: Int 0, [ Return (Int 0) ],
                      [ Return (Int 1) ]) ] );
          ];
        func "main" []
          [
            Set_heap (Int 0, Call ("classify", [ Int (-5) ]));
            Set_heap (Int 1, Call ("classify", [ Int 0 ]));
            Set_heap (Int 2, Call ("classify", [ Int 17 ]));
          ];
      ]
  in
  let m = run_program prog in
  let h = Ft_vm.Machine.heap m in
  Alcotest.(check (list int)) "classify" [ -1; 0; 1 ]
    [ Ft_vm.Memory.read h 0; Ft_vm.Memory.read h 1; Ft_vm.Memory.read h 2 ]

let test_heap_oob_crashes () =
  let prog = program [ func "main" [] [ Set_heap (Int 100_000, Int 1) ] ] in
  let m = run_program prog in
  let crashed =
    match Ft_vm.Machine.status m with
    | Ft_vm.Machine.Crashed (Ft_vm.Machine.Heap_out_of_bounds _) -> true
    | _ -> false
  in
  check_status "oob store crashes" true crashed

let test_div_by_zero_crashes () =
  let prog =
    program [ func "main" [] [ Set_heap (Int 0, Int 5 /: Int 0) ] ]
  in
  let m = run_program prog in
  let crashed =
    match Ft_vm.Machine.status m with
    | Ft_vm.Machine.Crashed Ft_vm.Machine.Division_by_zero -> true
    | _ -> false
  in
  check_status "div by zero crashes" true crashed

let test_check_instruction () =
  let prog =
    program
      [ func "main" [] [ Check (Int 1); Check (Int 0); Set_heap (Int 0, Int 9) ] ]
  in
  let m = run_program prog in
  (match Ft_vm.Machine.status m with
  | Ft_vm.Machine.Crashed (Ft_vm.Machine.Check_failed _) -> ()
  | s ->
      Alcotest.failf "expected check failure, got %s"
        (match s with
        | Ft_vm.Machine.Halted -> "halted"
        | _ -> "other"));
  Alcotest.(check int) "store after failed check did not run" 0
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 0)

let test_dirty_tracking () =
  let mem = Ft_vm.Memory.create ~page_size:16 ~size:256 () in
  Alcotest.(check int) "initially clean" 0 (Ft_vm.Memory.dirty_count mem);
  Ft_vm.Memory.write mem 0 1;
  Ft_vm.Memory.write mem 3 1;
  Ft_vm.Memory.write mem 17 1;
  Alcotest.(check int) "two dirty pages" 2 (Ft_vm.Memory.dirty_count mem);
  Alcotest.(check (list int)) "which pages" [ 0; 1 ]
    (Ft_vm.Memory.dirty_pages mem);
  Ft_vm.Memory.clear_dirty mem;
  Alcotest.(check int) "clean after clear" 0 (Ft_vm.Memory.dirty_count mem)

(* Differential check of the paged, lazily allocated heap against a
   flat [int array] model with a per-page dirty set.  Page sizes include
   one larger than the shared zero page; sizes are not a multiple of the
   page; writes of 0 are common, and restore images mix all-zero pages
   (which go back to the shared zero page) with written ones. *)
type mem_op =
  | M_read of int
  | M_write of int * int
  | M_dirty
  | M_clear
  | M_blit_page of int
  | M_snapshot
  | M_restore of int array

let show_mem_op = function
  | M_read a -> Printf.sprintf "read %d" a
  | M_write (a, v) -> Printf.sprintf "write %d %d" a v
  | M_dirty -> "dirty_pages"
  | M_clear -> "clear_dirty"
  | M_blit_page p -> Printf.sprintf "blit_page_into %d" p
  | M_snapshot -> "snapshot"
  | M_restore img ->
      Printf.sprintf "restore [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int img)))

let gen_mem_case =
  let open QCheck.Gen in
  let* page_size = frequency [ (3, oneofl [ 16; 64; 256 ]); (1, return 8192) ] in
  let* npages = 1 -- 5 in
  let* short = 0 -- (page_size - 1) in
  let size = (npages * page_size) - short in
  let words = npages * page_size in
  let addr = frequency [ (9, 0 -- (words - 1)); (1, oneofl [ -1; words ]) ] in
  let image =
    let* n =
      frequency [ (9, return words); (1, oneofl [ words - 1; words + 1 ]) ]
    in
    let* zero_pages = array_size (return npages) bool in
    let+ vals = array_size (return n) (0 -- 3) in
    Array.mapi
      (fun i v ->
        if i < words && zero_pages.(i / page_size) then 0 else v)
      vals
  in
  let op =
    frequency
      [ (4, map (fun a -> M_read a) addr);
        (6, map2 (fun a v -> M_write (a, v)) addr (0 -- 3));
        (2, return M_dirty); (1, return M_clear);
        (2, map (fun p -> M_blit_page p) (0 -- (npages - 1)));
        (1, return M_snapshot); (1, map (fun i -> M_restore i) image) ]
  in
  let+ ops = list_size (0 -- 30) op in
  (page_size, size, ops)

let arb_mem_case =
  QCheck.make gen_mem_case ~print:(fun (page_size, size, ops) ->
      Printf.sprintf "page_size=%d size=%d\n%s" page_size size
        (String.concat "\n" (List.map show_mem_op ops)))

(* Each op's observable result, as a list of words ([-1] for a refused
   op); both sides end with a full snapshot. *)
let run_mem_model ~page_size ~size ops =
  let words = (size + page_size - 1) / page_size * page_size in
  let m = Array.make words 0 in
  let dirty = Array.make (words / page_size) false in
  let dirty_list () =
    List.filter (fun p -> dirty.(p)) (List.init (Array.length dirty) Fun.id)
  in
  let ok a = a >= 0 && a < words in
  let step = function
    | M_read a -> if ok a then [ m.(a) ] else [ -1 ]
    | M_write (a, v) ->
        if ok a then begin
          m.(a) <- v;
          dirty.(a / page_size) <- true;
          []
        end
        else [ -1 ]
    | M_dirty -> List.length (dirty_list ()) :: dirty_list ()
    | M_clear -> Array.fill dirty 0 (Array.length dirty) false; []
    | M_blit_page p -> Array.to_list (Array.sub m (p * page_size) page_size)
    | M_snapshot -> Array.to_list m
    | M_restore img ->
        if Array.length img <> words then [ -1 ]
        else begin
          Array.blit img 0 m 0 words;
          Array.fill dirty 0 (Array.length dirty) false;
          []
        end
  in
  let results = List.map step ops in
  (words, results, Array.to_list m)

let run_mem ~page_size ~size ops =
  let module M = Ft_vm.Memory in
  let t = M.create ~page_size ~size () in
  let buf = Array.make page_size 0 in
  let step = function
    | M_read a -> ( try [ M.read t a ] with M.Out_of_bounds a' when a' = a -> [ -1 ])
    | M_write (a, v) -> (
        try M.write t a v; [] with M.Out_of_bounds a' when a' = a -> [ -1 ])
    | M_dirty -> M.dirty_count t :: M.dirty_pages t
    | M_clear -> M.clear_dirty t; []
    | M_blit_page p -> M.blit_page_into t p buf; Array.to_list buf
    | M_snapshot -> Array.to_list (M.snapshot t)
    | M_restore img -> ( try M.restore t img; [] with Invalid_argument _ -> [ -1 ])
  in
  let results = List.map step ops in
  (M.size t, results, Array.to_list (M.snapshot t))

let prop_memory_matches_flat_model =
  QCheck.Test.make ~name:"paged heap matches a flat array model" ~count:300
    arb_mem_case (fun (page_size, size, ops) ->
      run_mem ~page_size ~size ops = run_mem_model ~page_size ~size ops)

(* No store into one heap, by a write or a restore, may show through
   the shared zero page into another. *)
let test_memory_zero_page_not_aliased () =
  List.iter
    (fun page_size ->
      let size = (3 * page_size) + 5 in
      let h = Ft_vm.Memory.create ~page_size ~size () in
      Ft_vm.Memory.write h 1 7;
      Ft_vm.Memory.write h (page_size + 2) 8;
      let img = Array.make (Ft_vm.Memory.size h) 9 in
      Ft_vm.Memory.restore h img;
      Ft_vm.Memory.write h (size - 1) 10;
      let fresh = Ft_vm.Memory.create ~page_size ~size () in
      for a = 0 to Ft_vm.Memory.size fresh - 1 do
        if Ft_vm.Memory.read fresh a <> 0 then
          Alcotest.failf "page_size %d: word %d of a fresh heap is not 0"
            page_size a
      done)
    [ 16; 64; 8192 ]

(* Residency without a new API: the words reachable from a postgres-
   sized checkpointer and machine, against the words the region, heap
   and stack take when allocated up front.  Writing every heap page
   makes the heap dense; restoring a mostly-zero checkpoint must make it
   sparse again. *)
let test_lazy_residency () =
  let module Ck = Ft_runtime.Checkpointer in
  let heap_words = Ft_apps.Postgres.heap_words and stack_words = 4_096 in
  let machine =
    Ft_vm.Machine.create ~stack_size:stack_words ~heap_size:heap_words
      [| Ft_vm.Instr.Halt |]
  in
  let ckpt =
    Ck.create ~medium:Ck.Reliable_memory ~nprocs:1 ~heap_words ~stack_words ()
  in
  let region = Ft_stablemem.Vista.region (Ck.vista ckpt ~pid:0) in
  let eager = Ft_stablemem.Rio.size region + heap_words + stack_words in
  let bound = eager / 8 in
  let resident () = Obj.reachable_words (Obj.repr (ckpt, machine)) in
  let check what =
    let r = resident () in
    if r >= bound then
      Alcotest.failf "%s: %d words resident, bound %d (eager %d)" what r
        bound eager
  in
  check "fresh";
  let heap = Ft_vm.Machine.heap machine in
  List.iter (fun a -> Ft_vm.Memory.write heap a (a + 1)) [ 0; 1; 700; 9_000 ];
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  ignore
    (Ck.commit ckpt ~pid:0 ~machine
       ~kstate:(Ft_os.Kernel.snapshot_kstate kernel 0));
  check "after a sparse commit";
  for a = 0 to heap_words - 1 do Ft_vm.Memory.write heap a 5 done;
  Alcotest.(check bool) "a dense heap exceeds the bound" true
    (resident () >= bound);
  ignore (Ck.restore ckpt ~pid:0 ~machine);
  check "after restoring the sparse checkpoint";
  Alcotest.(check (list int)) "restored words" [ 1; 2; 701; 9_001; 0 ]
    (List.map (Ft_vm.Memory.read heap) [ 0; 1; 700; 9_000; 64 ])

let test_snapshot_restore () =
  let prog =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            While
              ( Var "i" <: Int 100,
                [ Set_heap (Var "i", Var "i" *: Var "i");
                  Set ("i", Var "i" +: Int 1) ] );
          ];
      ]
  in
  let code = Ft_vm.Asm.compile prog in
  let m = Ft_vm.Machine.create ~heap_size:4096 code in
  (* run ~500 instructions, snapshot, run to completion, restore, rerun *)
  ignore (Ft_vm.Machine.step_n m 500);
  let snap = Ft_vm.Machine.snapshot m in
  let mid_heap = Ft_vm.Memory.snapshot (Ft_vm.Machine.heap m) in
  ignore (Ft_vm.Machine.step_n m max_int);
  Alcotest.(check int) "99^2 written" (99 * 99)
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 99);
  Ft_vm.Machine.restore m snap;
  Alcotest.(check bool) "heap restored" true
    (Ft_vm.Memory.snapshot (Ft_vm.Machine.heap m) = mid_heap);
  ignore (Ft_vm.Machine.step_n m max_int);
  Alcotest.(check int) "re-execution completes identically" (99 * 99)
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 99)

let test_dest_reg_mutation_helpers () =
  let i = Ft_vm.Instr.Bin (Ft_vm.Instr.Add, 3, 1, 2) in
  Alcotest.(check (option int)) "dest reg" (Some 3) (Ft_vm.Instr.dest_reg i);
  let i' = Ft_vm.Instr.with_dest_reg i 7 in
  Alcotest.(check (option int)) "changed dest" (Some 7)
    (Ft_vm.Instr.dest_reg i');
  Alcotest.(check bool) "off-by-one flips Lt to Le" true
    (Ft_vm.Instr.off_by_one_cmp Ft_vm.Instr.Lt = Ft_vm.Instr.Le)

let test_compile_error () =
  let prog = program [ func "main" [] [ Set ("nope", Int 1) ] ] in
  Alcotest.check_raises "unbound variable"
    (Ft_vm.Asm.Compile_error "function main: unbound variable nope")
    (fun () -> ignore (Ft_vm.Asm.compile prog))

(* --- the interpreter against its reference ------------------------------ *)

(* The per-instruction interpreter [Machine.step_n]'s loop replaced, kept
   as the reference semantics of the instruction set: one instruction per
   call, every register through a checked accessor, every state change
   made on the record at once.  It gained two checks with the loop: a
   negative [Enter] frame crashes [Stack_underflow] instead of taking sp
   below 0, and an instruction with a bad register operand crashes
   [Bad_register], naming the first in operand order, before it changes
   anything else, as [step_n] documents. *)
module Ref = struct
  open Ft_vm.Machine
  module I = Ft_vm.Instr

  let is_running t = match t.status with Running -> true | _ -> false

  let reg t r =
    if r < 0 || r >= I.num_regs then (crash t (Bad_register r); 0)
    else t.regs.(r)

  let set_reg t r v =
    if r < 0 || r >= I.num_regs then crash t (Bad_register r)
    else t.regs.(r) <- v

  let push t v =
    if t.sp >= Array.length t.stack then crash t Stack_overflow
    else begin
      t.stack.(t.sp) <- v;
      t.sp <- t.sp + 1
    end

  let pop t =
    if t.sp <= 0 then (crash t Stack_underflow; 0)
    else begin
      t.sp <- t.sp - 1;
      t.stack.(t.sp)
    end

  let jump t a =
    if a < 0 || a > Array.length t.code then crash t (Bad_jump a)
    else t.pc <- a

  let cmp op a b =
    let r =
      match op with
      | I.Lt -> a < b
      | I.Le -> a <= b
      | I.Gt -> a > b
      | I.Ge -> a >= b
      | I.Eq -> a = b
      | I.Ne -> a <> b
    in
    if r then 1 else 0

  (* The register operands of an instruction, in operand order. *)
  let operands = function
    | I.Const (d, _) | I.Sload (d, _) -> [ d ]
    | I.Push r | I.Pop r | I.Sstore (_, r) | I.Jz (r, _) | I.Jnz (r, _)
    | I.Check r ->
        [ r ]
    | I.Mov (d, s) | I.Load (d, s) | I.Store (d, s) -> [ d; s ]
    | I.Bin (_, d, a, b) | I.Cmp (_, d, a, b) -> [ d; a; b ]
    | I.Nop | I.Halt | I.Jmp _ | I.Call _ | I.Ret | I.Enter _ | I.Leave
    | I.Sys _ | I.Sigret ->
        []

  (* Execute exactly one instruction; a no-op unless [Running]. *)
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
          let bad r = r < 0 || r >= I.num_regs in
          match List.find_opt bad (operands t.code.(at)) with
          | Some r -> crash t (Bad_register r)
          | None -> (
            match t.code.(at) with
            | I.Nop -> ()
            | I.Halt -> t.status <- Halted
            | I.Const (d, n) -> set_reg t d n
            | I.Mov (d, s) -> set_reg t d (reg t s)
            | I.Bin (op, d, a, b) -> (
                let y = reg t b in
                let x = reg t a in
                match op with
                | I.Add -> set_reg t d (x + y)
                | I.Sub -> set_reg t d (x - y)
                | I.Mul -> set_reg t d (x * y)
                | I.Div ->
                    if y = 0 then crash t Division_by_zero
                    else set_reg t d (x / y)
                | I.Mod ->
                    if y = 0 then crash t Division_by_zero
                    else set_reg t d (x mod y)
                | I.And -> set_reg t d (x land y)
                | I.Or -> set_reg t d (x lor y)
                | I.Xor -> set_reg t d (x lxor y)
                | I.Shl -> set_reg t d (x lsl (y land 62))
                | I.Shr -> set_reg t d (x asr (y land 62)))
            | I.Cmp (op, d, a, b) -> set_reg t d (cmp op (reg t a) (reg t b))
            | I.Load (d, a) -> (
                match Ft_vm.Memory.read t.heap (reg t a) with
                | v -> set_reg t d v
                | exception Ft_vm.Memory.Out_of_bounds addr ->
                    crash t (Heap_out_of_bounds addr))
            | I.Store (a, s) -> (
                match Ft_vm.Memory.write t.heap (reg t a) (reg t s) with
                | () -> ()
                | exception Ft_vm.Memory.Out_of_bounds addr ->
                    crash t (Heap_out_of_bounds addr))
            | I.Push r -> push t (reg t r)
            | I.Pop r ->
                let v = pop t in
                if is_running t then set_reg t r v
            | I.Sload (d, off) ->
                let i = t.fp + off in
                if i < 0 || i >= Array.length t.stack then
                  crash t Stack_overflow
                else set_reg t d t.stack.(i)
            | I.Sstore (off, s) ->
                let i = t.fp + off in
                if i < 0 || i >= Array.length t.stack then
                  crash t Stack_overflow
                else t.stack.(i) <- reg t s
            | I.Jmp a -> jump t a
            | I.Jz (r, a) -> if reg t r = 0 then jump t a
            | I.Jnz (r, a) -> if reg t r <> 0 then jump t a
            | I.Call a ->
                push t t.pc;
                if is_running t then jump t a
            | I.Ret ->
                let a = pop t in
                if is_running t then jump t a
            | I.Enter n ->
                push t t.fp;
                if is_running t then begin
                  t.fp <- t.sp;
                  if n < 0 then crash t Stack_underflow
                  else if t.sp + n > Array.length t.stack then
                    crash t Stack_overflow
                  else t.sp <- t.sp + n
                end
            | I.Leave ->
                if t.fp > t.sp || t.fp < 1 then crash t Stack_underflow
                else begin
                  t.sp <- t.fp;
                  let old_fp = pop t in
                  if is_running t then t.fp <- old_fp
                end
            | I.Sys s -> t.status <- Need_syscall s
            | I.Check r -> if reg t r = 0 then crash t (Check_failed at)
            | I.Sigret ->
                for r = I.num_regs - 1 downto 0 do
                  let v = pop t in
                  if is_running t then t.regs.(r) <- v
                done;
                if is_running t then begin
                  let a = pop t in
                  if is_running t then begin
                    t.in_signal <- false;
                    jump t a
                  end
                end)
        end

  let step_n t budget =
    let start = t.icount in
    while t.icount - start < budget && is_running t do
      step t
    done;
    t.icount - start
end

(* A random machine: a small code array over every constructor, stacks
   and heaps small enough for every reachable crash to fire, random
   starting registers and signal handler, and the slices to run it in
   (a budget each, with or without a signal delivered first). *)
type interp_case = {
  code : Ft_vm.Instr.t array;
  stack_size : int;
  heap_size : int;
  page_size : int;
  regs0 : int array;
  handler : int;
  slices : (int * bool) list;
}

let gen_interp_case =
  let open QCheck.Gen in
  let module I = Ft_vm.Instr in
  let* len = 1 -- 24 in
  let* stack_size = 2 -- 24 in
  let* page_size = oneofl [ 8; 16 ] in
  let* heap_size = 8 -- 48 in
  let reg = 0 -- 15 in
  let target = -2 -- (len + 1) in
  let value =
    frequency
      [ (4, -3 -- 3); (3, -1 -- (heap_size + page_size)); (1, int) ]
  in
  let off =
    frequency [ (3, -3 -- 3); (1, -(stack_size + 2) -- (stack_size + 2)) ]
  in
  let binop = oneofl I.[ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr ] in
  let cmpop = oneofl I.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  let instr =
    frequency
      [ (1, return I.Nop); (1, return I.Halt);
        (3, map2 (fun d n -> I.Const (d, n)) reg value);
        (2, map2 (fun d s -> I.Mov (d, s)) reg reg);
        (3, map4 (fun op d a b -> I.Bin (op, d, a, b)) binop reg reg reg);
        (2, map4 (fun op d a b -> I.Cmp (op, d, a, b)) cmpop reg reg reg);
        (2, map2 (fun d a -> I.Load (d, a)) reg reg);
        (2, map2 (fun a s -> I.Store (a, s)) reg reg);
        (4, map (fun r -> I.Push r) reg); (4, map (fun r -> I.Pop r) reg);
        (3, map2 (fun d o -> I.Sload (d, o)) reg off);
        (3, map2 (fun o s -> I.Sstore (o, s)) off reg);
        (2, map (fun a -> I.Jmp a) target);
        (2, map2 (fun r a -> I.Jz (r, a)) reg target);
        (2, map2 (fun r a -> I.Jnz (r, a)) reg target);
        (2, map (fun a -> I.Call a) target); (2, return I.Ret);
        (2, map (fun n -> I.Enter n) (-2 -- (stack_size + 1)));
        (2, return I.Leave);
        (1, map (fun s -> I.Sys s) (oneofl Ft_vm.Syscall.all));
        (1, map (fun r -> I.Check r) reg); (1, return I.Sigret) ]
  in
  (* The sequences [Asm] emits and [Machine.step_n] fuses, whole: an
     operand load and its spill, the second operand and the unspill,
     the operation and the branch on its result.  Registers alias and
     may be bad, offsets and targets may be out of range, so that
     every instruction inside can crash. *)
  let idiom =
    let bad = oneofl [ -1; 16 ] in
    let* d = frequency [ (8, reg); (1, bad) ] in
    let near =
      frequency [ (4, return d); (2, return I.scratch); (2, reg); (1, bad) ]
    in
    let load r =
      frequency
        [ (1, map (fun n -> I.Const (r, n)) value);
          (1, map (fun o -> I.Sload (r, o)) off) ]
    in
    let op =
      frequency
        [ (1, map (fun op -> I.Bin (op, d, I.scratch, d)) binop);
          (2, map3 (fun op a b -> I.Cmp (op, d, a, b)) cmpop near near) ]
    in
    let* x = load d and* p = near and* d' = near and* s = near in
    let* x' = load d' and* o = op and* j = near and* a = target in
    return [ x; I.Push p; x'; I.Pop s; o; I.Jz (j, a) ]
  in
  let piece = frequency [ (4, map (fun i -> [ i ]) instr); (1, idiom) ] in
  let rec fill n acc =
    if n >= len then return (List.concat (List.rev acc))
    else
      let* p = piece in
      fill (n + List.length p) (p :: acc)
  in
  let* code = map (fun l -> Array.sub (Array.of_list l) 0 len) (fill 0 []) in
  let* regs0 = array_size (return Ft_vm.Instr.num_regs) value in
  let* handler = frequency [ (1, return (-1)); (2, 0 -- (len - 1)) ] in
  let signal = frequency [ (3, return false); (1, return true) ] in
  let+ slices = list_size (1 -- 4) (pair (1 -- 300) signal) in
  { code; stack_size; heap_size; page_size; regs0; handler; slices }

let show_interp_case c =
  Printf.sprintf
    "stack_size=%d heap_size=%d page_size=%d handler=%d\nregs=[%s]\n\
     slices=[%s]\n%s"
    c.stack_size c.heap_size c.page_size c.handler
    (String.concat ";" (Array.to_list (Array.map string_of_int c.regs0)))
    (String.concat ";"
       (List.map
          (fun (b, s) -> Printf.sprintf "%d%s" b (if s then "+sig" else ""))
          c.slices))
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i x -> Printf.sprintf "%3d  %s" i (Ft_vm.Instr.to_string x))
             c.code)))

let arb_interp_case = QCheck.make gen_interp_case ~print:show_interp_case

(* A fresh machine for [c], with its own copy of the code. *)
let machine_of_case c =
  let m =
    Ft_vm.Machine.create ~stack_size:c.stack_size ~heap_size:c.heap_size
      ~page_size:c.page_size (Array.copy c.code)
  in
  Array.blit c.regs0 0 m.regs 0 Ft_vm.Instr.num_regs;
  m.signal_handler <- c.handler;
  m

(* Everything an instruction can change, and the count a slice reports. *)
let machine_view executed (m : Ft_vm.Machine.t) =
  ( executed,
    (m.pc, m.sp, m.fp, m.icount, m.in_signal, m.status),
    (Array.copy m.regs, Array.copy m.stack),
    ( Ft_vm.Memory.snapshot m.heap,
      Ft_vm.Memory.dirty_pages m.heap ) )

let show_status (s : Ft_vm.Machine.status) =
  match s with
  | Running -> "running"
  | Halted -> "halted"
  | Need_syscall s -> "syscall " ^ Ft_vm.Syscall.to_string s
  | Crashed r ->
      "crashed "
      ^ (match r with
        | Heap_out_of_bounds a -> Printf.sprintf "heap_oob %d" a
        | Stack_overflow -> "stack_overflow"
        | Stack_underflow -> "stack_underflow"
        | Division_by_zero -> "div0"
        | Bad_jump a -> Printf.sprintf "bad_jump %d" a
        | Bad_register r -> Printf.sprintf "bad_register %d" r
        | Check_failed pc -> Printf.sprintf "check_failed %d" pc
        | Killed -> "killed")

let show_view (n, (pc, sp, fp, ic, sg, st), (regs, stack), (heap, dirty)) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "executed=%d pc=%d sp=%d fp=%d icount=%d in_signal=%b %s\n\
    \  regs=[%s]\n  stack=[%s]\n  heap=[%s] dirty=[%s]"
    n pc sp fp ic sg (show_status st) (ints regs) (ints stack) (ints heap)
    (String.concat ";" (List.map string_of_int dirty))

let show_seen seen =
  String.concat ";"
    (List.rev_map (fun (pc, ic) -> Printf.sprintf "%d@%d" pc ic) seen)

(* Run [c] through [Machine.step_n] and through the reference, slice by
   slice, comparing after each; a pending syscall is stepped over on
   both sides.  With [hooked], both machines record the pc and icount
   their [on_execute] hook sees, and the sequences must match too.
   [setup] edits both fresh machines alike before the first slice.
   Returns the first disagreement. *)
let interp_diff ?(setup = ignore) ~hooked c =
  let module M = Ft_vm.Machine in
  let fast = machine_of_case c and slow = machine_of_case c in
  setup fast;
  setup slow;
  let seen_fast = ref [] and seen_slow = ref [] in
  let record m seen = Some (fun pc -> seen := (pc, M.icount m) :: !seen) in
  if hooked then begin
    fast.on_execute <- record fast seen_fast;
    slow.on_execute <- record slow seen_slow
  end;
  let rec slices i = function
    | [] -> None
    | (budget, signal) :: rest -> (
        if signal && M.deliver_signal fast <> M.deliver_signal slow then
          Some (Printf.sprintf "slice %d: deliver_signal differs" i)
        else
          let vf = machine_view (M.step_n fast budget) fast
          and vs = machine_view (Ref.step_n slow budget) slow in
          if vf <> vs then
            Some
              (Printf.sprintf
                 "slice %d (budget %d, hooked %b):\nstep_n    %s\nreference %s"
                 i budget hooked (show_view vf) (show_view vs))
          else if !seen_fast <> !seen_slow then
            Some
              (Printf.sprintf
                 "slice %d: the hook saw (pc, icount) [%s], the reference [%s]"
                 i (show_seen !seen_fast) (show_seen !seen_slow))
          else
            match (M.status fast, M.status slow) with
            | M.Need_syscall _, M.Need_syscall _ ->
                List.iter
                  (fun m ->
                    M.rewind_syscall m;
                    M.advance_past_syscall m)
                  [ fast; slow ];
                slices (i + 1) rest
            | _ -> slices (i + 1) rest)
  in
  slices 0 c.slices

let interp_agrees ~hooked c =
  match interp_diff ~hooked c with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

let prop_interp_matches_reference =
  QCheck.Test.make ~name:"step_n matches the reference interpreter" ~count:1000
    arb_interp_case (fun c ->
      interp_agrees ~hooked:false c && interp_agrees ~hooked:true c)

(* The generator is only as good as the crashes it reaches: over a fixed
   sample, every reason the instruction set can raise fires (a bad
   register only inside an idiom snippet), and so do [Halt] and [Sys]. *)
let test_interp_cases_reach_every_stop () =
  let rand = Random.State.make [| 27 |] in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let c = gen_interp_case rand in
    let m = machine_of_case c in
    List.iter
      (fun (budget, signal) ->
        if signal then ignore (Ft_vm.Machine.deliver_signal m);
        ignore (Ft_vm.Machine.step_n m budget))
      c.slices;
    match String.split_on_char ' ' (show_status (Ft_vm.Machine.status m)) with
    | "crashed" :: reason :: _ | reason :: _ -> Hashtbl.replace seen reason ()
    | [] -> ()
  done;
  List.iter
    (fun what ->
      if not (Hashtbl.mem seen what) then
        Alcotest.failf "no generated case ends %s" what)
    [ "halted"; "syscall"; "heap_oob"; "stack_overflow"; "stack_underflow";
      "div0"; "bad_jump"; "check_failed"; "bad_register" ]

(* Each idiom [Machine.step_n] runs without a dispatch per instruction,
   from the whole sequence [Asm] emits for an operand pair and a branch
   ([x d; Push d; x' d; Pop s; Cmp d; Jz d]) down to each pair in it:
   entered at every pc inside, at every budget, hooked and unhooked,
   against the reference.  The variants alias registers, make each
   instruction inside crash in turn (a bad register, a full stack, an
   [Sload] outside the stack, a [Jz] target outside the code) and take
   the branch both ways; every code array is also cut short at each
   length, so that an idiom can meet the end of the code. *)
let test_fused_idioms () =
  let module I = Ft_vm.Instr in
  let stack_size = 8 and fp = 2 in
  let whole ?(x = fun d -> I.Sload (d, 1)) ?(d = 10) ?(p = 10)
      ?(x' = fun d -> I.Const (d, 5)) ?(d' = 10) ?(s = I.scratch)
      ?(o = fun c -> I.Cmp (I.Lt, c, I.scratch, c)) ?(c = 10) ?(j = 10)
      ?(target = 0) () =
    [| x d; I.Push p; x' d'; I.Pop s; o c; I.Jz (j, target); I.Halt |]
  in
  (* [Sload (d, 1)] reads 23 and [Const (d, 5)] 5, so [Lt] is false and
     the branch taken; [Ge] falls through. *)
  let ge c = I.Cmp (I.Ge, c, I.scratch, c) in
  let variants =
    [ ("plain", whole (), 4);
      ("branch falls through", whole ~o:ge (), 4);
      ("const spilled, sload operand",
        whole ~x:(fun d -> I.Const (d, 9)) ~x':(fun d -> I.Sload (d, -2)) (),
        4);
      ("sload operand reads the spill",
        whole ~x':(fun d -> I.Sload (d, 2)) (), 4);
      ("unspill into the operand register", whole ~s:10 (), 4);
      ("operand into the unspill register", whole ~d':I.scratch (), 4);
      ("spill of another register", whole ~p:3 (), 4);
      ("bin, not cmp", whole ~o:(fun c -> I.Bin (I.Sub, c, I.scratch, c)) (),
        4);
      ("branch on another register", whole ~j:3 (), 4);
      ("cmp into the scratch register", whole ~c:I.scratch ~j:I.scratch (), 4);
      ("bad load register", whole ~d:16 (), 4);
      ("bad spill register", whole ~p:(-1) (), 4);
      ("bad operand register", whole ~d':16 (), 4);
      ("bad unspill register", whole ~s:(-1) (), 4);
      ("bad branch register", whole ~j:16 (), 4);
      ("full stack", whole (), stack_size);
      ("full stack, const spilled", whole ~x:(fun d -> I.Const (d, 9)) (),
        stack_size);
      ("sload below the stack", whole ~x:(fun d -> I.Sload (d, -3)) (), 4);
      ("operand sload past the stack",
        whole ~x':(fun d -> I.Sload (d, stack_size - fp)) (), 4);
      ("branch to the end of the code", whole ~target:7 (), 4);
      ("branch past the code", whole ~target:8 (), 4);
      ("branch below the code", whole ~target:(-1) (), 4);
      ("bad target, falling through", whole ~o:ge ~target:(-1) (), 4) ]
  in
  List.iter
    (fun (name, code, sp) ->
      for n = 1 to Array.length code do
        let code = Array.sub code 0 n in
        for entry = 0 to n - 1 do
          for budget = 1 to n - entry + 1 do
            List.iter
              (fun hooked ->
                let c =
                  { code; stack_size; heap_size = 16; page_size = 8;
                    regs0 = Array.init I.num_regs (fun i -> 100 + i);
                    handler = -1; slices = [ (budget, false) ] }
                in
                let setup (m : Ft_vm.Machine.t) =
                  Array.iteri (fun i _ -> m.stack.(i) <- 20 + i) m.stack;
                  m.pc <- entry;
                  m.sp <- sp;
                  m.fp <- fp
                in
                match interp_diff ~setup ~hooked c with
                | None -> ()
                | Some msg ->
                    Alcotest.failf "%s, %d instructions, entered at %d:\n%s\n%s"
                      name n entry (show_interp_case c) msg)
              [ false; true ]
          done
        done
      done)
    variants

(* [Asm] and the fault injectors never name a bad register, and the
   generator draws one only inside an idiom snippet, so these are built
   by hand: one instruction, a [Bad_register] crash, and no register
   written. *)
let test_bad_register () =
  let module M = Ft_vm.Machine in
  List.iter
    (fun (instr, bad) ->
      List.iter
        (fun hooked ->
          let m = M.create [| instr; Ft_vm.Instr.Halt |] in
          Array.iteri (fun i _ -> m.regs.(i) <- 100 + i) m.regs;
          let regs0 = Array.copy m.regs in
          if hooked then m.on_execute <- Some ignore;
          let what = Ft_vm.Instr.to_string instr in
          Alcotest.(check int) (what ^ ": executed") 1 (M.step_n m 10);
          Alcotest.(check string) (what ^ ": status")
            (show_status (M.Crashed (M.Bad_register bad)))
            (show_status (M.status m));
          Alcotest.(check int) (what ^ ": icount") 1 (M.icount m);
          Alcotest.(check int) (what ^ ": pc") 1 (M.pc m);
          Alcotest.(check (array int)) (what ^ ": registers untouched") regs0
            m.regs)
        [ false; true ])
    Ft_vm.Instr.[ (Const (16, 1), 16); (Mov (0, -1), -1) ]

(* A negative frame is refused before it moves sp: below 0, a later
   [Push] would store outside the stack array. *)
let test_negative_frame () =
  let module M = Ft_vm.Machine in
  List.iter
    (fun hooked ->
      let m = M.create [| Ft_vm.Instr.Enter (-5); Push 0; Halt |] in
      if hooked then m.on_execute <- Some ignore;
      Alcotest.(check int) "executed" 1 (M.step_n m 10);
      Alcotest.(check string) "status"
        (show_status (M.Crashed M.Stack_underflow))
        (show_status (M.status m));
      Alcotest.(check (pair int int)) "sp, fp: fp pushed, no frame" (1, 1)
        (m.sp, m.fp))
    [ false; true ]

let tests =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "locals and loop" `Quick test_locals_and_loop;
    Alcotest.test_case "recursive functions" `Quick test_functions;
    Alcotest.test_case "nested if/else" `Quick test_if_else_nested;
    Alcotest.test_case "heap oob crash" `Quick test_heap_oob_crashes;
    Alcotest.test_case "div by zero crash" `Quick test_div_by_zero_crashes;
    Alcotest.test_case "check instruction" `Quick test_check_instruction;
    Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "heap zero page not aliased" `Quick
      test_memory_zero_page_not_aliased;
    Alcotest.test_case "lazy residency" `Quick test_lazy_residency;
    QCheck_alcotest.to_alcotest prop_memory_matches_flat_model;
    Alcotest.test_case "fault mutation helpers" `Quick
      test_dest_reg_mutation_helpers;
    Alcotest.test_case "compile error" `Quick test_compile_error;
    Alcotest.test_case "bad register" `Quick test_bad_register;
    Alcotest.test_case "negative frame" `Quick test_negative_frame;
  ]

(* Run alone, at a fixed seed, by CI's "Interpreter reference
   differential" step: [QCHECK_SEED=n test_vm.exe test interp]. *)
let interp_tests =
  [
    QCheck_alcotest.to_alcotest prop_interp_matches_reference;
    Alcotest.test_case "generated cases reach every stop" `Quick
      test_interp_cases_reach_every_stop;
    Alcotest.test_case "fused idioms at every entry and budget" `Quick
      test_fused_idioms;
  ]

let () = Alcotest.run "ft_vm" [ ("vm", tests); ("interp", interp_tests) ]
