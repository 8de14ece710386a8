(* Mitigations: the paper's §2.6 advice for living with the Lose-work
   invariant, demonstrated end to end.

     dune exec examples/mitigations.exe

   Three scenes:
   1. "expand resources after a failure": a program that dies on a full
      disk crash-loops under plain recovery, but completes when the
      reboot grows the disk (the fixed ND result became transient);
   2. "commit less state": excluding magic's re-rendered framebuffer
      from checkpoints cuts DC-disk overhead with no loss of output;
   3. "crash early": the tighter nvi checks its buffer, the fewer heap
      corruptions survive a commit. *)

open Ft_vm.Asm

(* --- scene 1: resource expansion ----------------------------------------- *)

let disk_hog =
  program
    [
      func "main" []
        [
          Let ("fd", Open_file (Int 1));
          Let ("i", Int 0);
          While
            ( Var "i" <: Int 30,
              [
                Let ("ok", Write_file (Var "fd", Var "i" *: Var "i"));
                Check (Var "ok" >: Int 0);
                Output (Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
          Close_file (Var "fd");
        ];
    ]

let scene1 () =
  print_endline "--- scene 1: expand resources after a failure (2.6) ---";
  let run ~expand =
    let kernel = Ft_os.Kernel.create ~fs_capacity:18 ~nprocs:1 () in
    let cfg =
      { Ft_runtime.Engine.default_config with
        expand_resources_on_recovery = expand;
        max_recovery_attempts = 2;
        max_instructions = 10_000_000 }
    in
    let _, r =
      Ft_runtime.Engine.execute ~cfg ~kernel
        ~programs:[| Ft_vm.Asm.compile disk_hog |] ()
    in
    r
  in
  let stuck = run ~expand:false and saved = run ~expand:true in
  Printf.printf
    "  plain recovery      : %s after %d crashes (the disk is still full)\n"
    (match stuck.Ft_runtime.Engine.outcome with
    | Ft_runtime.Engine.Recovery_failed -> "gave up"
    | _ -> "unexpected")
    stuck.Ft_runtime.Engine.crashes;
  Printf.printf
    "  reboot grows disk   : %s, %d records written\n\n"
    (match saved.Ft_runtime.Engine.outcome with
    | Ft_runtime.Engine.Completed -> "completed"
    | _ -> "unexpected")
    (List.length saved.Ft_runtime.Engine.visible)

(* --- scene 2: commit less state ------------------------------------------- *)

(* magic re-renders its framebuffer (the pages from [fb_base] on) every
   command, so leaving those pages out of checkpoints loses nothing. *)
let magic_sim_ns ~protocol ~excluded =
  let params =
    { Ft_apps.Magic.small_params with Ft_apps.Magic.commands = 30 }
  in
  let fb_first_page = Ft_apps.Magic.fb_base / 64 in
  let w = Ft_apps.Magic.workload ~params () in
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with
        protocol;
        medium = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default;
        excluded_pages = (fun p -> excluded && p >= fb_first_page) }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  r.Ft_runtime.Engine.sim_time_ns

let scene2 () =
  print_endline "--- scene 2: exclude recomputable state from commits (2.6) ---";
  let base =
    magic_sim_ns ~protocol:Ft_core.Protocols.no_commit ~excluded:false
  in
  List.iter
    (fun (label, excluded) ->
      let t = magic_sim_ns ~protocol:Ft_core.Protocols.cpvs ~excluded in
      Printf.printf "  %-22s DC-disk overhead %s\n" label
        (Ft_harness.Report.pct1
           (100. *. float_of_int (t - base) /. float_of_int base)))
    [ ("full checkpoints", false); ("framebuffer excluded", true) ];
  print_newline ()

(* --- scene 3: crash early -------------------------------------------------- *)

(* The crash-early study is an experiment job; run it serially in
   memory. *)
let in_memory jobs =
  Ft_exp.Exp.lookup
    (Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~name:"mitigations" jobs)

let scene3 () =
  print_endline "--- scene 3: crash early to shorten dangerous paths (2.6) ---";
  List.iter
    (fun r ->
      Printf.printf "  integrity scan %-22s Lose-work violations %s\n"
        (if r.Ft_harness.Ablation.check_every >= 1_000_000 then "never"
         else
           Printf.sprintf "every %d keystrokes"
             r.Ft_harness.Ablation.check_every)
        (Ft_harness.Report.pct r.Ft_harness.Ablation.violation_pct))
    (let cadences = [ 1; 1_000_000 ] in
     Ft_harness.Ablation.crash_early_of_records ~cadences ~target_crashes:15
       (in_memory
          (Ft_harness.Ablation.crash_early_jobs ~cadences ~target_crashes:15
             ())))

let () =
  print_endline "== mitigations: living with the Lose-work invariant ==\n";
  scene1 ();
  scene2 ();
  scene3 ()
