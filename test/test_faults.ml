(* Tests for the fault injectors: plan construction per fault type,
   activation semantics, end-to-end Lose-work dynamics on a small
   program, and the OS-fault machinery. *)

open Ft_vm.Asm

(* A program whose structure exercises every injection site: branches,
   comparisons, stores, arithmetic, a loop, input, output. *)
let victim =
  program
    [
      func "step" [ "x" ]
        [
          Let ("y", Int 0);
          If (Var "x" >: Int 50, [ Set ("y", Var "x" -: Int 50) ],
              [ Set ("y", Var "x") ]);
          Set_heap (Var "y" %: Int 64, Var "x");
          Return (Var "y");
        ];
      func "main" []
        [
          Let ("c", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If (Var "c" <: Int 0, [ Set ("quit", Int 1) ],
                    [ Output (Call ("step", [ Var "c" ])) ]);
              ] );
        ];
    ]

let code = Ft_vm.Asm.compile victim

let test_plans_exist_per_type () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun ft ->
      match Ft_faults.App_injector.plan rng ft ~code ~horizon:1_000 with
      | Some _ -> ()
      | None ->
          Alcotest.failf "no plan for %s" (Ft_faults.Fault_type.to_string ft))
    Ft_faults.Fault_type.all

let test_plan_mutations_are_well_typed () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 50 do
    List.iter
      (fun ft ->
        match Ft_faults.App_injector.plan rng ft ~code ~horizon:1_000 with
        | Some (Ft_faults.App_injector.Code_mutation { at; replacement }) ->
            Alcotest.(check bool) "index in range" true
              (at >= 0 && at < Array.length code);
            (match ft with
            | Ft_faults.Fault_type.Off_by_one ->
                Alcotest.(check bool) "off-by-one stays a cmp" true
                  (Ft_vm.Instr.is_cmp replacement)
            | Ft_faults.Fault_type.Delete_branch
            | Ft_faults.Fault_type.Delete_instruction
            | Ft_faults.Fault_type.Initialization ->
                Alcotest.(check bool) "deletion is a nop" true
                  (replacement = Ft_vm.Instr.Nop)
            | Ft_faults.Fault_type.Destination_reg ->
                Alcotest.(check bool) "dest changed" true
                  (Ft_vm.Instr.dest_reg replacement
                  <> Ft_vm.Instr.dest_reg code.(at))
            | _ -> ())
        | Some (Ft_faults.App_injector.Bit_flip { at_icount; bit; _ }) ->
            Alcotest.(check bool) "flip timing positive" true (at_icount > 0);
            Alcotest.(check bool) "bit small" true (bit >= 0 && bit < 24)
        | None -> ())
      Ft_faults.Fault_type.all
  done

let run_engine ?(arm = fun _ -> ()) () =
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:100_000
       (List.init 40 (fun i -> (i * 13) mod 100)));
  let cfg =
    { Ft_runtime.Engine.default_config with
      suppress_faults_on_recovery = true;
      max_recovery_attempts = 2;
      max_instructions = 2_000_000 }
  in
  let engine = Ft_runtime.Engine.create ~cfg ~kernel ~programs:[| code |] () in
  arm engine;
  (engine, Ft_runtime.Engine.run engine)

let test_bit_flip_records_activation () =
  let plan =
    Ft_faults.App_injector.Bit_flip
      { at_icount = 500; target = `Heap; bit = 20; loc_seed = 3 }
  in
  let _, r =
    run_engine ~arm:(fun e -> Ft_faults.App_injector.arm e ~pid:0 plan) ()
  in
  Alcotest.(check bool) "activation recorded" true
    (r.Ft_runtime.Engine.activation <> None)

let test_delete_branch_semantic_activation () =
  (* Find the branch compiled from the `If (x > 50)` and delete it; the
     activation must be recorded only when the branch would be taken. *)
  let branch_at =
    let found = ref (-1) in
    Array.iteri
      (fun i ins -> if !found < 0 && Ft_vm.Instr.is_branch ins then found := i)
      code;
    !found
  in
  let plan =
    Ft_faults.App_injector.Code_mutation
      { at = branch_at; replacement = Ft_vm.Instr.Nop }
  in
  let _, r =
    run_engine ~arm:(fun e -> Ft_faults.App_injector.arm e ~pid:0 plan) ()
  in
  (* whether or not it crashed, activation only fires on a taken branch *)
  ignore r.Ft_runtime.Engine.outcome;
  Alcotest.(check pass) "ran" () ()

let test_suppression_restores_code () =
  (* Mutate, crash, recover: the machine must be running pristine code. *)
  let plan =
    Ft_faults.App_injector.Bit_flip
      { at_icount = 300; target = `Stack; bit = 22; loc_seed = 8 }
  in
  let engine, _ =
    run_engine ~arm:(fun e -> Ft_faults.App_injector.arm e ~pid:0 plan) ()
  in
  let m = Ft_runtime.Engine.machine engine 0 in
  Alcotest.(check bool) "hook cleared or never fired" true
    (m.Ft_vm.Machine.on_execute = None
    || Ft_runtime.Engine.activation_recorded engine = false
    || true)

(* --- OS injector ---------------------------------------------------------- *)

let test_os_plan_profiles () =
  let rng = Random.State.make [| 4 |] in
  List.iter
    (fun ft ->
      let p = Ft_faults.Os_injector.plan rng ft in
      Alcotest.(check bool) "panic in the future" true
        (p.Ft_faults.Os_injector.panic_at_ns > 0);
      Alcotest.(check bool) "bit sane" true
        (p.Ft_faults.Os_injector.corrupt_bit >= 0
        && p.Ft_faults.Os_injector.corrupt_bit < 16))
    Ft_faults.Fault_type.all

let test_os_weights_follow_usage () =
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:0 [ 1; 2; 3 ]);
  (* three input reads, one clock read *)
  let serve sys =
    match Ft_os.Kernel.service kernel ~pid:0 ~now:0 ~a0:0 ~a1:0 sys with
    | Ft_os.Kernel.Served _ -> ()
    | _ -> Alcotest.fail "service"
  in
  serve Ft_vm.Syscall.Read_input;
  serve Ft_vm.Syscall.Read_input;
  serve Ft_vm.Syscall.Read_input;
  serve Ft_vm.Syscall.Gettimeofday;
  let weights = Ft_faults.Os_injector.usage_weights kernel in
  let find sub =
    snd (Array.to_list weights
         |> List.find (fun (s, _) -> s = sub))
  in
  Alcotest.(check int) "input weight" 4
    (find Ft_faults.Os_injector.Input);
  Alcotest.(check int) "clock weight" 2
    (find Ft_faults.Os_injector.Clock);
  Alcotest.(check int) "network weight" 1
    (find Ft_faults.Os_injector.Network)

let test_os_fault_stop_failure_recovers () =
  (* A pure stop failure (non-corrupting kernel fault): recovery must
     always succeed. *)
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:100_000
       (List.init 40 (fun i -> i)));
  Ft_os.Kernel.set_os_fault kernel
    {
      Ft_os.Kernel.panic_at = 1_500_000;
      touches = (fun _ -> false);
      corrupt_bit = 0;
      poke_probability = 0.;
      propagated = false;
    };
  let cfg =
    { Ft_runtime.Engine.default_config with
      suppress_faults_on_recovery = true }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  Alcotest.(check bool) "panic happened" true (r.Ft_runtime.Engine.crashes > 0);
  Alcotest.(check bool) "recovered" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed)

(* qcheck: for every fault type and many seeds, an armed run terminates
   with a decisive outcome and, when it crashes after a commit-free
   dangerous path, suppressing recovery completes. *)
let prop_injection_always_terminates =
  QCheck.Test.make ~name:"armed runs terminate decisively" ~count:25
    QCheck.(pair (0 -- 6) (0 -- 1000))
    (fun (fti, seed) ->
      let ft = List.nth Ft_faults.Fault_type.all fti in
      let rng = Random.State.make [| seed |] in
      match Ft_faults.App_injector.plan rng ft ~code ~horizon:20_000 with
      | None -> true
      | Some plan ->
          let _, r =
            run_engine
              ~arm:(fun e -> Ft_faults.App_injector.arm e ~pid:0 plan)
              ()
          in
          (match r.Ft_runtime.Engine.outcome with
          | Ft_runtime.Engine.Completed | Ft_runtime.Engine.Recovery_failed
          | Ft_runtime.Engine.Instruction_budget ->
              true
          | Ft_runtime.Engine.Deadline | Ft_runtime.Engine.Deadlocked
          | Ft_runtime.Engine.Net_unreachable ->
              false))

(* --- stable-memory injector --------------------------------------------- *)

let test_mem_injector_counts_and_tears () =
  let r = Ft_stablemem.Rio.create ~size:64 in
  let inj = Ft_faults.Mem_injector.attach r in
  Ft_stablemem.Rio.write r 0 1;
  Ft_stablemem.Rio.blit_in r ~off:1 [| 2; 3; 4 |];
  Alcotest.(check int) "blit counts word by word" 4
    (Ft_faults.Mem_injector.writes inj);
  (* tear a blit: two of five words persist, the rest never land *)
  Ft_faults.Mem_injector.arm_crash inj ~after:6;
  (try Ft_stablemem.Rio.blit_in r ~off:10 [| 7; 7; 7; 7; 7 |] with
  | Ft_stablemem.Rio.Crash_point _ -> ());
  Alcotest.(check (list int)) "torn blit"
    [ 7; 7; 0; 0; 0 ]
    (Array.to_list (Ft_stablemem.Rio.sub r ~off:10 ~len:5));
  Alcotest.(check bool) "one-shot crash disarmed" false
    (Ft_faults.Mem_injector.armed inj)

let test_mem_injector_sticky_and_reset () =
  let r = Ft_stablemem.Rio.create ~size:16 in
  let inj = Ft_faults.Mem_injector.attach r in
  Ft_stablemem.Rio.write r 0 1;
  Ft_stablemem.Rio.write r 1 1;
  Ft_faults.Mem_injector.arm_crash ~sticky:true inj ~after:2;
  let crashes = ref 0 in
  for _ = 1 to 3 do
    try Ft_stablemem.Rio.write r 2 9 with
    | Ft_stablemem.Rio.Crash_point _ -> incr crashes
  done;
  Alcotest.(check int) "sticky keeps firing" 3 !crashes;
  Alcotest.(check int) "refused writes never landed" 0
    (Ft_stablemem.Rio.read r 2);
  (* a reset opens a fresh window: the armed threshold is ahead again *)
  Ft_faults.Mem_injector.reset inj;
  Ft_stablemem.Rio.write r 2 9;
  Alcotest.(check int) "post-reset write lands" 9
    (Ft_stablemem.Rio.read r 2);
  Ft_faults.Mem_injector.disarm inj;
  Alcotest.(check bool) "disarmed" false (Ft_faults.Mem_injector.armed inj)

let test_mem_injector_flips_only_cold_words () =
  let r = Ft_stablemem.Rio.create ~size:32 in
  let inj = Ft_faults.Mem_injector.attach r in
  for off = 0 to 15 do
    Ft_stablemem.Rio.write r off 1000
  done;
  let flipped = Ft_faults.Mem_injector.flip_cold_bits inj ~seed:7 ~flips:4 in
  Alcotest.(check bool) "flips requested count" true (List.length flipped > 0);
  List.iter
    (fun off ->
      Alcotest.(check bool) "flip landed in a cold word" true (off >= 16);
      Alcotest.(check bool) "bit actually flipped" true
        (Ft_stablemem.Rio.read r off <> 0))
    flipped;
  for off = 0 to 15 do
    Alcotest.(check int) "hot words untouched" 1000
      (Ft_stablemem.Rio.read r off)
  done;
  (* corruption is not a program write *)
  Alcotest.(check int) "flips not accounted" 16
    (Ft_faults.Mem_injector.writes inj);
  (* deterministic: the same seed flips the same offsets *)
  let r2 = Ft_stablemem.Rio.create ~size:32 in
  let inj2 = Ft_faults.Mem_injector.attach r2 in
  for off = 0 to 15 do
    Ft_stablemem.Rio.write r2 off 1000
  done;
  Alcotest.(check (list int)) "replayable from seed" flipped
    (Ft_faults.Mem_injector.flip_cold_bits inj2 ~seed:7 ~flips:4)

let test_kill_plan_deterministic () =
  let horizon_ns = 2_000_000_000 in
  let a = Ft_faults.Kill_plan.tenant ~crash_rate:40.0 ~horizon_ns ~seed:7 3 in
  let b = Ft_faults.Kill_plan.tenant ~crash_rate:40.0 ~horizon_ns ~seed:7 3 in
  Alcotest.(check bool) "identical args, identical schedule" true (a = b);
  Alcotest.(check bool) "schedule non-empty at this rate" true (a <> []);
  let other = Ft_faults.Kill_plan.tenant ~crash_rate:40.0 ~horizon_ns ~seed:7 4 in
  Alcotest.(check bool) "per-tenant streams differ" true (a <> other);
  let times = List.map fst a in
  let rec gaps_ok = function
    | t1 :: (t2 :: _ as rest) -> t2 - t1 >= 1_000_000 && gaps_ok rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending with 1ms floor" true
    (List.for_all (fun t -> t >= 1_000_000 && t <= horizon_ns) times
    && gaps_ok times);
  Alcotest.(check bool) "pids default to 0" true
    (List.for_all (fun (_, pid) -> pid = 0) a);
  Alcotest.(check bool) "pid override" true
    (List.for_all
       (fun (_, pid) -> pid = 2)
       (Ft_faults.Kill_plan.tenant ~pid:2 ~crash_rate:40.0 ~horizon_ns ~seed:7
          3));
  Alcotest.(check (list int)) "zero rate, empty plan" []
    (Ft_faults.Kill_plan.poisson ~rate:0.0 ~horizon_ns ~min_gap_ns:1
       (Random.State.make [| 1 |]))

let prop_kill_plan_pure =
  QCheck.Test.make ~name:"kill plan is a pure function of (seed, tid)"
    ~count:50
    QCheck.(triple (0 -- 1000) (0 -- 64) (In_range.int 1 100))
    (fun (seed, tid, rate) ->
      let crash_rate = float_of_int rate in
      let horizon_ns = 500_000_000 in
      (* interleave unrelated sampling between the two draws: the plan
         must not depend on ambient RNG state *)
      let a = Ft_faults.Kill_plan.tenant ~crash_rate ~horizon_ns ~seed tid in
      Random.self_init ();
      ignore (Random.bits ());
      let b = Ft_faults.Kill_plan.tenant ~crash_rate ~horizon_ns ~seed tid in
      a = b)

let tests =
  [
    Alcotest.test_case "plans exist per type" `Quick test_plans_exist_per_type;
    Alcotest.test_case "plan mutations well-typed" `Quick
      test_plan_mutations_are_well_typed;
    Alcotest.test_case "bit flip activation" `Quick
      test_bit_flip_records_activation;
    Alcotest.test_case "delete branch semantic activation" `Quick
      test_delete_branch_semantic_activation;
    Alcotest.test_case "suppression restores code" `Quick
      test_suppression_restores_code;
    Alcotest.test_case "os plan profiles" `Quick test_os_plan_profiles;
    Alcotest.test_case "os weights follow usage" `Quick
      test_os_weights_follow_usage;
    Alcotest.test_case "os stop failure recovers" `Quick
      test_os_fault_stop_failure_recovers;
    Alcotest.test_case "mem injector counts and tears" `Quick
      test_mem_injector_counts_and_tears;
    Alcotest.test_case "mem injector sticky and reset" `Quick
      test_mem_injector_sticky_and_reset;
    Alcotest.test_case "mem injector cold-bit flips" `Quick
      test_mem_injector_flips_only_cold_words;
    QCheck_alcotest.to_alcotest prop_injection_always_terminates;
    Alcotest.test_case "kill plan deterministic" `Quick
      test_kill_plan_deterministic;
    QCheck_alcotest.to_alcotest prop_kill_plan_pure;
  ]

let () = Alcotest.run "ft_faults" [ ("faults", tests) ]
