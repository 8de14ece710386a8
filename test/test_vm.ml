(* Unit tests for the VM: instruction semantics, the Asm compiler, memory
   dirty tracking, and machine snapshot/restore. *)

let run_program ?(steps = 1_000_000) prog =
  let code = Ft_vm.Asm.compile prog in
  let m = Ft_vm.Machine.create ~heap_size:4096 code in
  let rec go n =
    if n = 0 then failwith "program did not halt";
    match Ft_vm.Machine.status m with
    | Ft_vm.Machine.Running ->
        Ft_vm.Machine.step m;
        go (n - 1)
    | Ft_vm.Machine.Need_syscall _ ->
        failwith "unexpected syscall in pure program"
    | Ft_vm.Machine.Halted | Ft_vm.Machine.Crashed _ -> ()
  in
  go steps;
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
  for _ = 1 to 500 do Ft_vm.Machine.step m done;
  let snap = Ft_vm.Machine.snapshot m in
  let mid_heap = Ft_vm.Memory.snapshot (Ft_vm.Machine.heap m) in
  while Ft_vm.Machine.status m = Ft_vm.Machine.Running do
    Ft_vm.Machine.step m
  done;
  Alcotest.(check int) "99^2 written" (99 * 99)
    (Ft_vm.Memory.read (Ft_vm.Machine.heap m) 99);
  Ft_vm.Machine.restore m snap;
  Alcotest.(check bool) "heap restored" true
    (Ft_vm.Memory.snapshot (Ft_vm.Machine.heap m) = mid_heap);
  while Ft_vm.Machine.status m = Ft_vm.Machine.Running do
    Ft_vm.Machine.step m
  done;
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
  ]

let () = Alcotest.run "ft_vm" [ ("vm", tests) ]
