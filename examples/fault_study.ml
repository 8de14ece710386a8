(* Fault study: inject one application fault of each type into postgres,
   watch where the dangerous path falls, and check the Lose-work verdict
   against end-to-end recovery — the paper's §4.1 methodology on a single
   run per fault type, narrated.

     dune exec examples/fault_study.exe
*)

let run_with_fault ft ~seed =
  let w = Ft_apps.Postgres.workload ~params:Ft_apps.Postgres.small_params () in
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with
        protocol = Ft_core.Protocols.cpvs;
        suppress_faults_on_recovery = true;
        max_recovery_attempts = 2;
        max_instructions = 100_000_000 }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let engine = Ft_runtime.Engine.create ~cfg ~kernel ~programs:w.programs () in
  let rng = Random.State.make [| seed |] in
  match
    Ft_faults.App_injector.plan rng ft ~code:w.programs.(0)
      ~horizon:2_000_000
  with
  | None -> None
  | Some plan ->
      Ft_faults.App_injector.arm engine ~pid:0 plan;
      let r = Ft_runtime.Engine.run engine in
      Some (plan, r)

let describe = function
  | Ft_faults.App_injector.Code_mutation { at; replacement } ->
      Printf.sprintf "code[%d] := %s" at (Ft_vm.Instr.to_string replacement)
  | Ft_faults.App_injector.Bit_flip { at_icount; target; bit; _ } ->
      Printf.sprintf "flip bit %d of a %s word at icount %d" bit
        (match target with `Stack -> "stack" | `Heap -> "heap")
        at_icount

let reference =
  lazy
    (let w =
       Ft_apps.Postgres.workload ~params:Ft_apps.Postgres.small_params ()
     in
     let cfg =
       Ft_apps.Workload.engine_config w Ft_runtime.Engine.default_config
     in
     let kernel = Ft_apps.Workload.kernel w in
     let _, r =
       Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
     in
     r.Ft_runtime.Engine.visible)

let study ft =
  Printf.printf "\n--- %s ---\n" (Ft_faults.Fault_type.to_string ft);
  (* hunt for a seed that crashes *)
  let rec hunt seed =
    if seed > 600 then print_endline "  (no crashing run found in budget)"
    else
      match run_with_fault ft ~seed with
      | Some (plan, r) when r.Ft_runtime.Engine.crashes > 0 ->
          Printf.printf "  injected: %s\n" (describe plan);
          let trace = r.Ft_runtime.Engine.trace in
          (match (r.Ft_runtime.Engine.activation, Ft_core.Trace.crashes trace)
           with
          | Some (_, a), crash :: _ ->
              let c = crash.Ft_core.Event.index in
              Printf.printf
                "  activation at event %d, crash at event %d (latency %d \
                 events)\n" a c (c - a)
          | _ -> ());
          let violated =
            match r.Ft_runtime.Engine.activation with
            | Some activation ->
                Ft_core.Lose_work.committed_after_activation trace ~activation
            | None -> false
          in
          Printf.printf "  commit on the dangerous path (Lose-work violated)? %b\n"
            violated;
          let recovered =
            r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
            && Ft_core.Consistency.is_consistent
                 ~reference:(Lazy.force reference)
                 ~observed:r.Ft_runtime.Engine.visible
          in
          Printf.printf
            "  end-to-end recovery (fault suppressed on replay): %s\n"
            (if recovered then "SUCCEEDED" else "FAILED");
          Printf.printf "  theorem check: recovery %s iff no violation -> %s\n"
            (if recovered then "succeeded" else "failed")
            (if recovered = not violated then "consistent with Lose-work"
             else "anomaly (commit captured no corrupt state)")
      | _ -> hunt (seed + 1)
  in
  hunt 17

let () =
  print_endline "== fault_study: application faults vs the Lose-work invariant ==";
  print_endline
    "(postgres under Discount Checking + CPVS; one crashing run per type)";
  List.iter study Ft_faults.Fault_type.all
