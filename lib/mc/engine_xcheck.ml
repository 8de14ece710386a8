(* Cross-validate the abstract checker's verdicts against the real
   runtime: same properties, real machinery (VM, kernel, checkpointer,
   rollback, replay), over an enumerated schedule × crash-point space
   reached through the engine's deterministic scheduling hooks. *)

open Ft_core
open Ft_vm.Instr

type stats = {
  x_runs : int;
  x_kills : int;
  x_failures : string list;
}

let zero_stats = { x_runs = 0; x_kills = 0; x_failures = [] }

let add_stats a b =
  {
    x_runs = a.x_runs + b.x_runs;
    x_kills = a.x_kills + b.x_kills;
    x_failures = a.x_failures @ b.x_failures;
  }

(* p0, per round i:  v <- v*3 + i; send v to p1; v <- v + reply;
   print v.  p1, per round: x <- recv; reply 2x + 5.  Unrolled: no
   loops to go wrong, every syscall a scheduling decision. *)
let ping_pong ~rounds =
  let p0 =
    [ Const (2, 7) ]
    @ List.concat
        (List.init rounds (fun i ->
             [
               Const (4, 3);
               Bin (Mul, 2, 2, 4);
               Const (4, i + 1);
               Bin (Add, 2, 2, 4);
               Const (0, 1);
               Mov (1, 2);
               Sys Ft_vm.Syscall.Send;
               Sys Ft_vm.Syscall.Recv;
               Bin (Add, 2, 2, 0);
               Mov (0, 2);
               Sys Ft_vm.Syscall.Write_output;
             ]))
    (* a final "done" message keeps p1 alive (blocked receiving) until
       after p0's last visible: a halted process is correctly left out
       of 2PC commit rounds, which would orphan its last receive *)
    @ [ Const (0, 1); Const (1, 999); Sys Ft_vm.Syscall.Send; Halt ]
  in
  let p1 =
    List.concat
      (List.init rounds (fun _ ->
           [
             Sys Ft_vm.Syscall.Recv;
             Const (4, 2);
             Bin (Mul, 2, 0, 4);
             Const (4, 5);
             Bin (Add, 2, 2, 4);
             Const (0, 0);
             Mov (1, 2);
             Sys Ft_vm.Syscall.Send;
           ]))
    @ [ Sys Ft_vm.Syscall.Recv; Halt ]
  in
  [| Array.of_list p0; Array.of_list p1 |]

let schedules ~nprocs ~depth =
  let rec go d =
    if d = 0 then [ [] ]
    else
      List.concat_map
        (fun s -> List.init nprocs (fun p -> s @ [ p ]))
        (go (d - 1))
  in
  go depth

let run_one ?(recovery_kills = []) ~spec ~programs ~sched ~kill () =
  let kernel = Ft_os.Kernel.create ~seed:42 ~nprocs:2 () in
  let sched = Array.of_list sched in
  let decision = ref 0 in
  let cfg =
    {
      Ft_runtime.Engine.default_config with
      protocol = spec;
      heap_words = 1_024;
      stack_words = 256;
      kill_at_decision = (match kill with None -> [] | Some k -> [ k ]);
      recovery_kills;
      pick_override =
        Some
          (fun candidates ->
            let d = !decision in
            incr decision;
            if d < Array.length sched && List.mem sched.(d) candidates then
              Some sched.(d)
            else None);
    }
  in
  snd (Ft_runtime.Engine.execute ~cfg ~kernel ~programs ())

let check ?(rounds = 2) ?(sched_depth = 4) ?(kill_decisions = 10) ~spec () =
  let programs = ping_pong ~rounds in
  let runs = ref 0 and kills = ref 0 and failures = ref [] in
  let fail sched kill what =
    let k =
      match kill with
      | None -> "none"
      | Some (d, pid) -> Printf.sprintf "d%d:p%d" d pid
    in
    failures :=
      Printf.sprintf "%s sched=%s kill=%s: %s" spec.Protocol.spec_name
        (String.concat "" (List.map string_of_int sched))
        k what
      :: !failures
  in
  let stages =
    [|
      Ft_runtime.Scheduler.Mid_restore; Ft_runtime.Scheduler.Mid_cascade;
      Ft_runtime.Scheduler.Mid_round;
    |]
  in
  List.iter
    (fun sched ->
      let reference = run_one ~spec ~programs ~sched ~kill:None () in
      incr runs;
      if reference.Ft_runtime.Engine.outcome <> Ft_runtime.Engine.Completed
      then fail sched None "kill-free run did not complete"
      else begin
        if not (Save_work.holds reference.Ft_runtime.Engine.trace) then
          fail sched None "save-work violated on the kill-free trace";
        let ref_visible = reference.Ft_runtime.Engine.visible in
        for d = 0 to kill_decisions - 1 do
          for victim = 0 to 1 do
            let kill = Some (d, victim) in
            let judge tag (r : Ft_runtime.Engine.result) =
              incr runs;
              if r.Ft_runtime.Engine.crashes > 0 then incr kills;
              if r.Ft_runtime.Engine.outcome <> Ft_runtime.Engine.Completed
              then fail sched kill (tag ^ "did not complete after recovery")
              else begin
                if not (Save_work.holds r.Ft_runtime.Engine.trace) then
                  fail sched kill (tag ^ "save-work violated");
                if
                  not
                    (Consistency.is_consistent ~reference:ref_visible
                       ~observed:r.Ft_runtime.Engine.visible)
                then
                  fail sched kill
                    (tag ^ "visible output inconsistent with reference")
              end
            in
            judge "" (run_one ~spec ~programs ~sched ~kill ());
            (* nested failure on the real engine: the same kill, plus a
               crash injected into the first entry of a recovery stage
               (cycled so the space covers all three stages).  Recovery
               must still converge to the same visible output. *)
            let stage = stages.((d + victim) mod Array.length stages) in
            judge "nested: "
              (run_one ~recovery_kills:[ (stage, 1) ] ~spec ~programs ~sched
                 ~kill ())
          done
        done
      end)
    (schedules ~nprocs:2 ~depth:sched_depth);
  { x_runs = !runs; x_kills = !kills; x_failures = List.rev !failures }

(* ---- Exp fan-out -------------------------------------------------------- *)

open Ft_exp

let stats_to_value s =
  Jstore.Obj
    [
      ("runs", Jstore.Int s.x_runs);
      ("kills", Jstore.Int s.x_kills);
      ( "failures",
        Jstore.List (List.map (fun f -> Jstore.String f) s.x_failures) );
    ]

let stats_of_value v =
  let int k = Option.bind (Jstore.member k v) Jstore.to_int in
  let failures =
    Option.bind
      (Option.bind (Jstore.member "failures" v) Jstore.to_list)
      (fun l ->
        let fs = List.filter_map Jstore.to_str l in
        if List.compare_lengths fs l = 0 then Some fs else None)
  in
  match (int "runs", int "kills", failures) with
  | Some x_runs, Some x_kills, Some x_failures ->
      Some { x_runs; x_kills; x_failures }
  | _ -> None

let jobs ?(rounds = 2) ?(sched_depth = 4) ?(kill_decisions = 10) ~specs () =
  List.map
    (fun spec ->
      let key =
        (* mcx2: the nested-injection variants doubled the run set *)
        Printf.sprintf "mcx2/%s/r%ds%dk%d" spec.Protocol.spec_name rounds
          sched_depth kill_decisions
      in
      Job.make ~key ~seed:0 (fun () ->
          stats_to_value
            (check ~rounds ~sched_depth ~kill_decisions ~spec ())))
    specs
