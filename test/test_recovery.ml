(* Tests for the escalating-recovery subsystem: the policy ladder, the
   quarantine circuit breaker, the recovery lineage (progress rule,
   fault classifier, egress cursor), and the scheduler
   machinery the ladder rides on — crash-bar escalation, deep rollback,
   and the sequenced egress channel (exactly-once visible output under
   policy-driven recovery). *)

open Ft_vm.Asm
module Policy = Ft_recovery.Policy
module Quarantine = Ft_recovery.Quarantine
module Lineage = Ft_recovery.Lineage
module Engine = Ft_runtime.Engine

(* --- policy ladder --------------------------------------------------------- *)

let test_policy_ladder_shape () =
  let check_ladder name pol expected =
    List.iteri
      (fun i want ->
        let got = Policy.decide pol ~l0_attempts:2 ~attempt:(i + 1) in
        Alcotest.(check bool)
          (Printf.sprintf "%s attempt %d" name (i + 1))
          true (got = want))
      expected
  in
  check_ladder "generic" Policy.generic
    [ Policy.Replay; Policy.Replay; Policy.Give_up ];
  check_ladder "deep" Policy.deep
    [
      Policy.Replay; Policy.Replay; Policy.Deep_rollback 2;
      Policy.Deep_rollback 2; Policy.Give_up;
    ];
  check_ladder "full" Policy.full
    [
      Policy.Replay; Policy.Replay; Policy.Deep_rollback 2;
      Policy.Deep_rollback 2; Policy.Perturbed_replay { salt = 1 };
      Policy.Perturbed_replay { salt = 2 }; Policy.Perturbed_replay { salt = 3 };
      Policy.Give_up;
    ]

let test_policy_names_and_budgets () =
  List.iter
    (fun (n, stock) ->
      match Policy.by_name n with
      | None -> Alcotest.fail ("by_name " ^ n)
      | Some pol -> Alcotest.(check bool) ("by_name " ^ n) true (pol = stock))
    [ ("generic", Policy.generic); ("deep", Policy.deep); ("full", Policy.full) ];
  Alcotest.(check bool) "unknown ladder" true (Policy.by_name "l33t" = None);
  Alcotest.(check int) "give-up rung" 3 (Policy.rung Policy.Give_up)

(* Both progress rules, in the one transition that applies them: after
   a crash at the bar (icount 20) and a restore whose restore point is
   10, a commit at the restore point is never progress; one past it but
   at or below the crash bar is progress only for the unsequenced legacy
   ladder; one past both is progress for every ladder. *)
let test_lineage_progress_rules () =
  let restore_point = 10 and crash_bar = 20 in
  let progress pol ~icount =
    let l = Lineage.create pol ~l0_attempts:2 in
    Lineage.crash l ~icount:crash_bar;
    ignore (Lineage.next_action l : Policy.action);
    Lineage.restored l ~icount:(restore_point - 1);
    Lineage.committed l ~icount
  in
  List.iter
    (fun (name, pol, at_restore, under_bar, past_both) ->
      let check what icount want =
        Alcotest.(check bool) (name ^ " " ^ what) want (progress pol ~icount)
      in
      check "at the restore point" restore_point at_restore;
      check "past the restore point, under the bar" (restore_point + 1)
        under_bar;
      check "at the bar" crash_bar under_bar;
      check "past both" (crash_bar + 1) past_both)
    [
      ("legacy", Policy.legacy, false, true, true);
      ("generic", Policy.generic, false, false, true);
    ]

(* --- quarantine breaker ---------------------------------------------------- *)

let qp =
  {
    Quarantine.window_ns = 100;
    threshold = 2;
    backoff_ns = 50;
    backoff_mult = 2.0;
    max_trips = 2;
  }

let test_quarantine_trips_and_parks () =
  let b = Quarantine.create qp in
  Alcotest.(check bool) "first crash below threshold" true
    (Quarantine.note_crash b ~now_ns:0 = `Ok);
  (match Quarantine.note_crash b ~now_ns:10 with
  | `Park_until t ->
      Alcotest.(check int) "parked for backoff_ns" 60 t;
      Alcotest.(check bool) "open until deadline" false
        (Quarantine.probe b ~now_ns:59);
      Alcotest.(check bool) "half-open at deadline" true
        (Quarantine.probe b ~now_ns:60);
      Alcotest.(check bool) "half-open state" true
        (Quarantine.state b = Quarantine.Half_open)
  | _ -> Alcotest.fail "second crash in window should trip");
  Alcotest.(check int) "one trip" 1 (Quarantine.trips b)

let test_quarantine_latches () =
  let b = Quarantine.create qp in
  ignore (Quarantine.note_crash b ~now_ns:0);
  ignore (Quarantine.note_crash b ~now_ns:10);
  (* trip 1 *)
  Alcotest.(check bool) "probe opens half-open" true
    (Quarantine.probe b ~now_ns:1_000);
  (* a failed probe re-trips with a doubled park (trip 2 of 2) *)
  (match Quarantine.note_crash b ~now_ns:1_001 with
  | `Park_until t ->
      Alcotest.(check int) "second park doubled" (1_001 + 100) t
  | _ -> Alcotest.fail "failed probe should re-park");
  Alcotest.(check bool) "probe reopens once more" true
    (Quarantine.probe b ~now_ns:2_000);
  (* trip 3 exceeds max_trips = 2: latch open for good *)
  Alcotest.(check bool) "third trip latches" true
    (Quarantine.note_crash b ~now_ns:2_001 = `Latched);
  Alcotest.(check bool) "latched forever" false
    (Quarantine.probe b ~now_ns:1_000_000_000_000);
  Alcotest.(check bool) "crashes while latched stay latched" true
    (Quarantine.note_crash b ~now_ns:2_002 = `Latched)

let test_quarantine_progress_resets () =
  let b = Quarantine.create qp in
  ignore (Quarantine.note_crash b ~now_ns:0);
  ignore (Quarantine.note_crash b ~now_ns:10);
  Quarantine.note_progress b;
  Alcotest.(check bool) "closed after progress" true
    (Quarantine.state b = Quarantine.Closed);
  Alcotest.(check int) "trips cleared" 0 (Quarantine.trips b);
  Alcotest.(check bool) "window cleared too" true
    (Quarantine.note_crash b ~now_ns:11 = `Ok)

let test_quarantine_window_slides () =
  let b = Quarantine.create qp in
  ignore (Quarantine.note_crash b ~now_ns:0);
  (* 200ns later: the first crash is out of the 100ns window *)
  Alcotest.(check bool) "stale crash aged out" true
    (Quarantine.note_crash b ~now_ns:200 = `Ok)

(* --- classifier ------------------------------------------------------------ *)

(* The verdicts, driven through the lineage's transitions.  [crash]
   records the salt in effect and the offset from the restore base; a
   restore to icount 0 keeps offsets absolute, and a ladder whose first
   action is a perturbed replay ([l2_first]) moves the salt to 1. *)
let test_lineage_verdicts () =
  let l2_first = { Policy.full with Policy.l1_attempts = 0 } in
  let mk ?(pol = Policy.generic) ?(l0 = 2) () =
    Lineage.create pol ~l0_attempts:l0
  in
  let replay l =
    ignore (Lineage.next_action l : Policy.action);
    Lineage.restored l ~icount:0
  in
  let is want l = Lineage.classify l = want in
  Alcotest.(check bool) "benign" true (is Lineage.Benign (mk ()));
  let c = mk () in
  Lineage.crash c ~icount:100;
  replay c;
  Lineage.crash c ~icount:100;
  Alcotest.(check bool) "same-icount pair" true (is Lineage.Bohrbug c);
  Alcotest.(check bool) "bohrbug" true (is Lineage.Bohrbug c);
  let c = mk () in
  Lineage.crash c ~icount:100;
  replay c;
  Alcotest.(check bool) "rescuing commit is progress" true
    (Lineage.committed c ~icount:200);
  Alcotest.(check bool) "transient" true (is Lineage.Transient c);
  let c = mk () in
  Lineage.crash c ~icount:100;
  replay c;
  Lineage.crash c ~icount:250;
  replay c;
  ignore (Lineage.committed c ~icount:300 : bool);
  Alcotest.(check bool) "wandering crashes + rescue = heisenbug" true
    (is Lineage.Heisenbug c);
  let c = mk ~pol:l2_first ~l0:1 () in
  Lineage.crash c ~icount:100;
  replay c;
  Lineage.crash c ~icount:100;
  replay c;
  Alcotest.(check int) "rescued at L2" 1 (Lineage.salt c);
  ignore (Lineage.committed c ~icount:200 : bool);
  Alcotest.(check bool) "L2 rescue = heisenbug even with a pair" true
    (is Lineage.Heisenbug c);
  let c = mk ~pol:l2_first ~l0:0 () in
  Lineage.crash c ~icount:100;
  replay c;
  Lineage.crash c ~icount:100;
  Alcotest.(check bool) "cross-salt crashes are no pair" false
    (is Lineage.Bohrbug c);
  Alcotest.(check bool) "sticky" true (is Lineage.Sticky c)

(* The restore base is 0 until the first restore, so the original
   crash's offset counts from program start while the replay's counts
   from the restored snapshot.  A process that commits at icount 60,
   crashes 40 instructions later, is restored to that commit and crashes
   40 instructions into the replay shows no same-offset pair, and the
   deterministic fault reads Sticky; only a second replay crash makes it
   a Bohrbug.  Measuring progress by lineage position is meant to make
   the first replay crash enough. *)
let test_lineage_first_crash_offset () =
  let l = Lineage.create Policy.generic ~l0_attempts:2 in
  ignore (Lineage.committed l ~icount:60 : bool);
  Lineage.crash l ~icount:100;
  ignore (Lineage.next_action l : Policy.action);
  Lineage.restored l ~icount:60;
  Lineage.crash l ~icount:100;
  Alcotest.(check bool) "original + one replay crash reads sticky" true
    (Lineage.classify l = Lineage.Sticky);
  ignore (Lineage.next_action l : Policy.action);
  Lineage.restored l ~icount:60;
  Lineage.crash l ~icount:100;
  Alcotest.(check bool) "a second replay crash reads bohrbug" true
    (Lineage.classify l = Lineage.Bohrbug)

(* --- the ladder on a real engine ------------------------------------------- *)

(* The canonical echo workload from test_runtime, with a deterministic
   Bohrbug planted after the last output: the program's Halt becomes a
   wild jump, so the run crashes at the very end — past every commit —
   and every replay, at any rung, re-executes the crash at the same
   icount. *)
let echo_program =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [ Output (Var "c" *: Int 2) ] );
              ] );
        ];
    ]

let tokens = [ 3; 1; 4; 1; 5; 9; 2; 6 ]
let expected_output = List.map (fun x -> x * 2) tokens

let make_kernel () =
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000 tokens);
  kernel

let bohr_code () =
  let code = Ft_vm.Asm.compile echo_program in
  Array.iteri
    (fun i ins -> if ins = Ft_vm.Instr.Halt then code.(i) <- Ft_vm.Instr.Jmp (-1))
    code;
  code

let run_bohr ?(policy = Policy.legacy) ?(max_recovery_attempts = 3) () =
  let cfg = { Engine.default_config with policy; max_recovery_attempts } in
  let kernel = make_kernel () in
  let _, r = Engine.execute ~cfg ~kernel ~programs:[| bohr_code () |] () in
  r

(* Every rung of every ladder meets the same deterministic crash; the
   ladder burns exactly its budget (the run's L0 depth, then its L1 and
   L2 attempts), the classifier calls it a Bohrbug, and — the
   Consistency half of the tentpole claim — the released output stream
   is EXACTLY the fault-free stream: deep rollback re-emits old outputs
   and the sequenced egress absorbs every one. *)
let test_ladder_bohrbug_escalation () =
  List.iter
    (fun (name, pol, budget, deep, perturbed, peak) ->
      let r = run_bohr ~policy:pol ~max_recovery_attempts:budget () in
      let name = Printf.sprintf "%s budget %d" name budget in
      let check msg = Alcotest.(check int) (name ^ " " ^ msg) in
      let crashes =
        budget + pol.Policy.l1_attempts + pol.Policy.l2_attempts + 1
      in
      Alcotest.(check bool) (name ^ " gave up") true
        (r.Engine.outcome = Engine.Recovery_failed);
      check "crashes" crashes r.Engine.crashes;
      check "deep rollbacks" deep r.Engine.deep_rollbacks;
      check "perturbed replays" perturbed r.Engine.perturbed_replays;
      check "ladder peak" peak r.Engine.ladder_peaks.(0);
      check "replay mismatches" 0 r.Engine.replay_mismatches;
      Alcotest.(check (list int)) (name ^ " exactly-once output")
        expected_output r.Engine.visible;
      (* The Bohrbug signature is two replays crashing at the same
         offset; one replay's crash alone reads Sticky. *)
      Alcotest.(check bool) (name ^ " classified") true
        (r.Engine.fault_classes.(0)
        = if crashes >= 3 then Lineage.Bohrbug else Lineage.Sticky))
    [
      ("generic", Policy.generic, 2, 0, 0, 0);
      ("deep", Policy.deep, 2, 2, 0, 1);
      ("full", Policy.full, 2, 2, 3, 2);
      ("generic", Policy.generic, 1, 0, 0, 0);
      ("deep", Policy.deep, 1, 2, 0, 1);
      ("full", Policy.full, 1, 2, 3, 2);
      ("generic", Policy.generic, 3, 0, 0, 0);
      ("deep", Policy.deep, 3, 2, 0, 1);
      ("full", Policy.full, 3, 2, 3, 2);
    ]

(* The crash bar: commits made during replay BELOW the highest crash
   icount must not reset the attempt counter.  The echo program commits
   on every re-emitted output during replay; without the bar those
   commits would re-arm rung L0 forever and the generic ladder would
   spin to the instruction budget instead of giving up after its two
   replays. *)
let test_crash_bar_prevents_l0_loop () =
  let r = run_bohr ~policy:Policy.generic ~max_recovery_attempts:2 () in
  Alcotest.(check bool) "gave up (did not spin)" true
    (r.Engine.outcome = Engine.Recovery_failed);
  Alcotest.(check int) "exactly the L0 budget" 3 r.Engine.crashes

(* Legacy guard: the same Bohrbug under [Policy.legacy] (the default)
   keeps the engine's historical behavior — duplicates in the visible
   stream are tolerated (unsequenced egress), and the run still ends in
   Recovery_failed.  The budget is [max_recovery_attempts] replays, so
   the run crashes once more than it recovers. *)
let test_legacy_path_unchanged () =
  List.iter
    (fun n ->
      let r = run_bohr ~max_recovery_attempts:n () in
      let name = Printf.sprintf "budget %d: " n in
      Alcotest.(check bool) (name ^ "legacy gave up") true
        (r.Engine.outcome = Engine.Recovery_failed);
      Alcotest.(check bool) (name ^ "legacy output consistent") true
        (Ft_core.Consistency.is_consistent ~reference:expected_output
           ~observed:r.Engine.visible);
      Alcotest.(check int) (name ^ "mismatch counter dormant") 0
        r.Engine.replay_mismatches;
      Alcotest.(check int) (name ^ "recoveries") n r.Engine.recoveries;
      Alcotest.(check int) (name ^ "crashes") (n + 1) r.Engine.crashes)
    [ 1; 3; 10 ]

(* Sequenced egress under plain stop failures: a policy run with kills
   must release each output exactly once — not merely a consistent
   stream with tolerated duplicates, the exact fault-free stream. *)
let test_egress_exactly_once_under_kills () =
  let cfg =
    {
      Engine.default_config with
      policy = Policy.generic;
      max_recovery_attempts = 2;
      kills = [ (2_100_000, 0); (5_300_000, 0) ];
    }
  in
  let kernel = make_kernel () in
  let _, r =
    Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile echo_program |] ()
  in
  Alcotest.(check bool) "completed" true (r.Engine.outcome = Engine.Completed);
  Alcotest.(check (list int)) "exactly the reference stream" expected_output
    r.Engine.visible;
  Alcotest.(check int) "no replay mismatches" 0 r.Engine.replay_mismatches

(* --- classifier properties on the real runtime (qcheck) -------------------- *)

let echo_horizon =
  lazy
    (let kernel = make_kernel () in
     let _, r =
       Engine.execute ~cfg:Engine.default_config ~kernel
         ~programs:[| Ft_vm.Asm.compile echo_program |] ()
     in
     r.Engine.wall_instructions)

let run_recurring ~policy ~seed ft =
  let horizon = Lazy.force echo_horizon in
  let code = Ft_vm.Asm.compile echo_program in
  let cfg =
    {
      Engine.default_config with
      policy;
      max_recovery_attempts = 2;
      suppress_faults_on_recovery = false;
      max_instructions = (40 * horizon) + 200_000;
    }
  in
  let kernel = make_kernel () in
  let engine = Engine.create ~cfg ~kernel ~programs:[| code |] () in
  match
    Ft_faults.App_injector.arm_recurring engine ~pid:0 ~seed ft ~code ~horizon
  with
  | None -> None
  | Some _ -> Some (Engine.run engine)

(* A recurring code mutation is the paper's propagating fault: identical-
   environment replays crash at the same icount, so whenever the run
   crashed at least twice the classifier must read the same-icount
   signature and say Bohrbug. *)
let prop_code_mutation_is_bohrbug =
  QCheck.Test.make ~name:"recurring code mutation classifies bohrbug"
    ~count:25
    QCheck.(pair (0 -- 10_000) (oneofl Ft_faults.Fault_type.[
      Destination_reg; Initialization; Delete_branch; Delete_instruction;
      Off_by_one ]))
    (fun (seed, ft) ->
      match run_recurring ~policy:Policy.generic ~seed ft with
      | None -> true
      | Some r ->
          if r.Engine.crashes >= 2 then
            r.Engine.fault_classes.(0) = Lineage.Bohrbug
          else true)

(* Recurring bit flips under the full ladder: the whole observation —
   outcome, outputs, rungs used, verdict — is a pure function of the
   seed (identical runs twice over), and when only a perturbed replay
   got the run through, the verdict is Heisenbug. *)
let prop_bit_flip_classification_deterministic =
  QCheck.Test.make
    ~name:"recurring bit flip classifies deterministically under perturbation"
    ~count:25
    QCheck.(pair (0 -- 10_000)
              (oneofl Ft_faults.Fault_type.[ Stack_bit_flip; Heap_bit_flip ]))
    (fun (seed, ft) ->
      match
        ( run_recurring ~policy:Policy.full ~seed ft,
          run_recurring ~policy:Policy.full ~seed ft )
      with
      | None, None -> true
      | Some r, Some r' ->
          r.Engine.outcome = r'.Engine.outcome
          && r.Engine.visible = r'.Engine.visible
          && r.Engine.crashes = r'.Engine.crashes
          && r.Engine.fault_classes.(0) = r'.Engine.fault_classes.(0)
          && (not
                (r.Engine.outcome = Engine.Completed
                && r.Engine.crashes > 0
                && r.Engine.perturbed_replays > 0
                && r.Engine.ladder_peaks.(0) = 2)
             || r.Engine.fault_classes.(0) = Lineage.Heisenbug)
      | _ -> false)

let tests =
  [
    Alcotest.test_case "policy ladder shape" `Quick test_policy_ladder_shape;
    Alcotest.test_case "policy names and budgets" `Quick
      test_policy_names_and_budgets;
    Alcotest.test_case "policy progress rules" `Quick
      test_lineage_progress_rules;
    Alcotest.test_case "quarantine trips and parks" `Quick
      test_quarantine_trips_and_parks;
    Alcotest.test_case "quarantine latches" `Quick test_quarantine_latches;
    Alcotest.test_case "quarantine progress resets" `Quick
      test_quarantine_progress_resets;
    Alcotest.test_case "quarantine window slides" `Quick
      test_quarantine_window_slides;
    Alcotest.test_case "classifier verdicts" `Quick test_lineage_verdicts;
    Alcotest.test_case "first crash offset counts from program start" `Quick
      test_lineage_first_crash_offset;
    Alcotest.test_case "ladder bohrbug escalation" `Quick
      test_ladder_bohrbug_escalation;
    Alcotest.test_case "crash bar prevents L0 loop" `Quick
      test_crash_bar_prevents_l0_loop;
    Alcotest.test_case "legacy path unchanged" `Quick test_legacy_path_unchanged;
    Alcotest.test_case "egress exactly-once under kills" `Quick
      test_egress_exactly_once_under_kills;
    QCheck_alcotest.to_alcotest prop_code_mutation_is_bohrbug;
    QCheck_alcotest.to_alcotest prop_bit_flip_classification_deterministic;
  ]

let () = Alcotest.run "ft_recovery" [ ("recovery", tests) ]
