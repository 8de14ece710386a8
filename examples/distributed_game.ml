(* Distributed game: the four-process xpilot workload with a crashing
   client, showing orphan avoidance in a distributed computation — and
   why two-phase commit is the exception that *increases* xpilot's commit
   rate (paper §3).

     dune exec examples/distributed_game.exe
*)

let params = { Ft_apps.Xpilot.frames = 60 }

let run ?(protocol = Ft_core.Protocols.cpvs) ?(kills = [])
    ?(medium = Ft_runtime.Checkpointer.Reliable_memory) () =
  let w = Ft_apps.Xpilot.workload ~params () in
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with protocol; kills; medium }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  r

let () =
  print_endline "== distributed_game: 4-process xpilot ==\n";
  Printf.printf "%-12s %18s %10s %12s %8s\n" "protocol" "commits s/c1/c2/c3"
    "DC fps" "disk fps" "crash ok";
  print_endline (String.make 66 '-');
  List.iter
    (fun proto ->
      let dc = run ~protocol:proto () in
      let disk =
        run ~protocol:proto
          ~medium:(Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default) ()
      in
      (* kill client 2 mid-game: the server must not become an orphan *)
      let crashed = run ~protocol:proto ~kills:[ (1_500_000_000, 2) ] () in
      let c = dc.Ft_runtime.Engine.commit_counts in
      Printf.printf "%-12s %5d/%3d/%3d/%3d %10.1f %12.1f %8b\n"
        proto.Ft_core.Protocol.spec_name c.(0) c.(1) c.(2) c.(3)
        (Ft_apps.Xpilot.fps dc) (Ft_apps.Xpilot.fps disk)
        (crashed.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      ())
    Ft_core.Protocols.[ cand; cpvs; cbndvs; cpv_2pc; cbndv_2pc ];
  print_endline
    "\nNote the 2PC rows: committing every process at each visible event\n\
     raises the total commit count for xpilot — the one application where\n\
     coordinated commit loses to pessimistic commit-before-send, exactly\n\
     as the paper observes.";

  (* Orphans: run the same game with a protocol that upholds nothing.  If
     a client crashes after the server committed a dependence on its lost
     joystick input, the server is an orphan. *)
  let broken =
    run ~protocol:Ft_core.Protocols.no_commit
      ~kills:[ (1_500_000_000, 2) ] ()
  in
  Printf.printf
    "\nwithout Save-work: outcome %s (crashed client stalls the game)\n"
    (match broken.Ft_runtime.Engine.outcome with
    | Ft_runtime.Engine.Completed -> "completed (lucky timing)"
    | Ft_runtime.Engine.Deadlocked -> "deadlocked"
    | Ft_runtime.Engine.Recovery_failed -> "recovery failed"
    | Ft_runtime.Engine.Deadline -> "deadline"
    | Ft_runtime.Engine.Instruction_budget -> "instruction budget"
    | Ft_runtime.Engine.Net_unreachable -> "network unreachable")
