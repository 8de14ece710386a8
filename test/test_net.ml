(* Tests for the unreliable-network subsystem: the transport's own
   reliability machinery (in-order delivery, dedup, retransmission,
   partitions, budget exhaustion), its integration with the kernel's
   duplicate filter and the engine's recovery path, and the 2PC
   prepare timeout with presumed-abort. *)

open Ft_vm.Asm
module Policy = Ft_net.Policy
module Transport = Ft_net.Transport

(* --- transport unit tests ----------------------------------------------- *)

let latency = 120_000
let jitter = 60_000

(* A transport delivering into a per-destination list, newest last. *)
let make_transport ?policy ?max_retries ?rto_max_ns ~nprocs ~seed () =
  let log = Array.make nprocs [] in
  let deliver ~at:_ ~src:_ ~dst v = log.(dst) <- v :: log.(dst) in
  let t =
    Transport.create ?policy ?max_retries ?rto_max_ns ~seed ~nprocs
      ~latency_ns:latency ~jitter_ns:jitter ~deliver ()
  in
  (t, fun dst -> List.rev log.(dst))

(* Advance simulated time event by event until the queue of an
   [nprocs]-process transport drains.  The retry budget bounds the
   queue, so this always terminates. *)
let rec drain ~nprocs t =
  match Transport.next_event_in t ~lo:0 ~hi:nprocs with
  | Some at ->
      Transport.pump t ~now:at;
      drain ~nprocs t
  | None -> ()

let test_reliable_in_order () =
  let t, got = make_transport ~nprocs:2 ~seed:7 () in
  for i = 0 to 9 do
    Transport.send t ~now:(i * 1_000) ~src:0 ~dst:1 i
  done;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "in order, exactly once"
    (List.init 10 Fun.id) (got 1);
  let s = Transport.stats t in
  Alcotest.(check int) "no retransmissions on a clean link" 0
    s.Transport.retransmits;
  Alcotest.(check int) "nothing in flight" 0 (Transport.in_flight t)

let test_reorder_still_in_order () =
  (* Every frame reordered on the wire; the reassembly buffer must hide
     it — the kernel's per-sender msg_seq filter depends on FIFO. *)
  let policy _ _ = Policy.make ~reorder:0.9 ~reorder_ns:500_000 () in
  let t, got = make_transport ~policy ~nprocs:2 ~seed:11 () in
  for i = 0 to 19 do
    Transport.send t ~now:(i * 2_000) ~src:0 ~dst:1 i
  done;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "reordered wire, ordered delivery"
    (List.init 20 Fun.id) (got 1)

let test_duplicates_deduped () =
  let policy _ _ = Policy.make ~duplicate:1.0 () in
  let t, got = make_transport ~policy ~nprocs:2 ~seed:3 () in
  for i = 0 to 9 do
    Transport.send t ~now:(i * 1_000) ~src:0 ~dst:1 (100 + i)
  done;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "each payload delivered once"
    (List.init 10 (fun i -> 100 + i))
    (got 1);
  Alcotest.(check bool) "wire duplicates were seen and discarded" true
    ((Transport.stats t).Transport.dup_frames > 0)

let test_loss_recovered_by_retransmission () =
  let policy _ _ = Policy.make ~drop:0.5 () in
  let t, got = make_transport ~policy ~nprocs:2 ~seed:5 () in
  for i = 0 to 19 do
    Transport.send t ~now:(i * 1_000) ~src:0 ~dst:1 i
  done;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "50% loss, all delivered in order"
    (List.init 20 Fun.id) (got 1);
  let s = Transport.stats t in
  Alcotest.(check bool) "losses happened" true (s.Transport.dropped > 0);
  Alcotest.(check bool) "retransmissions recovered them" true
    (s.Transport.retransmits > 0);
  Alcotest.(check int) "no link gave up" 0 s.Transport.gave_up

let test_partition_heals () =
  let policy _ _ =
    Policy.make
      ~partitions:[ Policy.partition ~from_ns:0 ~until_ns:5_000_000 () ]
      ()
  in
  let t, got = make_transport ~policy ~nprocs:2 ~seed:9 () in
  Transport.send t ~now:1_000 ~src:0 ~dst:1 42;
  Alcotest.(check bool) "unreachable during the window" false
    (Transport.reachable t ~src:0 ~dst:1 ~now:1_000);
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "delivered after the heal" [ 42 ] (got 1);
  Alcotest.(check bool) "reachable after the heal" true
    (Transport.reachable t ~src:0 ~dst:1 ~now:6_000_000);
  Alcotest.(check int) "no link gave up" 0 (Transport.stats t).Transport.gave_up

let test_permanent_partition_exhausts_budget () =
  let policy _ _ =
    Policy.make
      ~partitions:[ Policy.partition ~from_ns:0 ~until_ns:max_int () ]
      ()
  in
  let t, got = make_transport ~policy ~max_retries:6 ~nprocs:2 ~seed:13 () in
  Transport.send t ~now:0 ~src:0 ~dst:1 7;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "nothing delivered" [] (got 1);
  Alcotest.(check bool) "link latched failed" true
    (Transport.link_failed t ~src:0 ~dst:1);
  Alcotest.(check bool) "any_failed_in sees it" true
    (Transport.any_failed_in t ~lo:0 ~hi:2);
  Alcotest.(check int) "frame abandoned" 1 (Transport.stats t).Transport.gave_up

let test_asymmetric_ack_loss () =
  (* Data 0->1 flows clean; every ack (1->0) is lost.  Retransmissions
     keep arriving, the receiver dedups every one of them, and delivery
     stays exactly-once even though the sender eventually gives up. *)
  let policy src _dst =
    if src = 1 then Policy.make ~drop:1.0 () else Policy.reliable
  in
  let t, got = make_transport ~policy ~max_retries:5 ~nprocs:2 ~seed:21 () in
  Transport.send t ~now:0 ~src:0 ~dst:1 99;
  drain ~nprocs:2 t;
  Alcotest.(check (list int)) "delivered exactly once" [ 99 ] (got 1);
  let s = Transport.stats t in
  Alcotest.(check int) "every retransmission deduped" s.Transport.retransmits
    s.Transport.dup_frames;
  Alcotest.(check bool) "sender gave up without an ack" true
    (s.Transport.gave_up > 0)

(* A paced stream of [n] messages down one link (one send per 5us, 20us
   latency, 5us jitter), drained to completion: what retransmission
   costs before any engine machinery is involved.  Returns the delivered
   count, the last delivery time and the transport's stats. *)
let net_burst ~loss ~n =
  let delivered = ref 0 and last_ns = ref 1 in
  let policy _ _ = Policy.make ~drop:loss () in
  let t =
    Transport.create ~policy ~seed:7 ~nprocs:2 ~latency_ns:20_000
      ~jitter_ns:5_000
      ~deliver:(fun ~at ~src:_ ~dst:_ () ->
        incr delivered;
        if at > !last_ns then last_ns := at)
      ()
  in
  let gap = 5_000 in
  for i = 0 to n - 1 do
    Transport.send t ~now:(i * gap) ~src:0 ~dst:1 ();
    Transport.pump t ~now:(i * gap)
  done;
  let now = ref (n * gap) in
  while Transport.pending_in t ~lo:0 ~hi:2 do
    (match Transport.next_event_in t ~lo:0 ~hi:2 with
    | Some ts -> now := max (!now + 1) ts
    | None -> incr now);
    Transport.pump t ~now:!now
  done;
  (!delivered, !last_ns, Transport.stats t)

(* Delivered, transmissions, retransmits and last-delivery ns per
   (messages, loss): every message arrives, and the wire cost and the
   drain time grow with the loss rate. *)
let burst_golden =
  [
    ((2_000, 0.0), (2_000, 2_000, 0, 10_015_160));
    ((2_000, 0.05), (2_000, 2_927, 927, 10_035_153));
    ((2_000, 0.2), (2_000, 5_731, 3_731, 10_342_280));
    ((10_000, 0.0), (10_000, 10_000, 0, 50_015_035));
    ((10_000, 0.05), (10_000, 14_541, 4_541, 50_015_579));
    ((10_000, 0.2), (10_000, 33_945, 23_945, 51_073_105));
  ]

let test_burst_golden () =
  List.iter
    (fun ((n, loss), expected) ->
      let delivered, last_ns, s = net_burst ~loss ~n in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%d msgs at loss %g" n loss)
        (let d, tx, rtx, last = expected in
         ((d, tx), (rtx, last)))
        ((delivered, s.Transport.transmissions),
         (s.Transport.retransmits, last_ns)))
    burst_golden

(* --- dependency vectors over a stormy wire ------------------------------- *)

(* The message-logging protocols piggyback a dependency vector on every
   application message.  The vector rides the same unreliable wire as
   the value it annotates, so the transport must hand both to the
   receiver exactly once, in order, with the vector intact. *)
let dv_piggyback_roundtrip_prop =
  QCheck.Test.make ~name:"dv piggyback survives loss, duplication, reorder"
    ~count:40
    QCheck.(triple (1 -- 30) (0 -- 1000) (0 -- 2))
    (fun (n, seed, storm_ix) ->
      let nprocs = 4 in
      let src = 0 and dst = 1 in
      let policy _ _ =
        match storm_ix with
        | 0 -> Policy.reliable
        | 1 -> Policy.make ~drop:0.3 ~duplicate:0.2 ()
        | _ ->
            Policy.make ~drop:0.2 ~duplicate:0.1 ~reorder:0.5
              ~reorder_ns:400_000 ()
      in
      let delivered = ref [] in
      let deliver ~at:_ ~src:_ ~dst:_ pair = delivered := pair :: !delivered in
      let t =
        Transport.create ~policy ~seed ~nprocs ~latency_ns:latency
          ~jitter_ns:jitter ~deliver ()
      in
      let vc = Ft_core.Vclock.create nprocs in
      for i = 0 to n - 1 do
        Ft_core.Vclock.tick vc src;
        Transport.send t ~now:(i * 1_000) ~src ~dst
          (i, Ft_core.Vclock.copy vc)
      done;
      drain ~nprocs t;
      let got = List.rev !delivered in
      let receiver = Ft_core.Vclock.create nprocs in
      List.iter (fun (_, dv) -> Ft_core.Vclock.merge_into ~into:receiver dv)
        got;
      List.map fst got = List.init n Fun.id
      && List.for_all
           (fun (i, dv) -> Ft_core.Vclock.get dv src = i + 1)
           got
      && Ft_core.Vclock.get receiver src = n)

(* --- engine integration -------------------------------------------------- *)

let pingpong_programs ~rounds =
  let client =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("src", Int 0);
            While
              ( Var "i" <: Int rounds,
                [
                  Send_msg (Int 1, Var "i");
                  Recv_msg ("v", "src");
                  Output (Var "v");
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  let server =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("src", Int 0);
            While
              ( Var "i" <: Int rounds,
                [
                  Recv_msg ("v", "src");
                  Send_msg (Var "src", Var "v" *: Int 10);
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  [| Ft_vm.Asm.compile client; Ft_vm.Asm.compile server |]

let pingpong_reference rounds = List.init rounds (fun i -> i * 10)

let run_pingpong ?(cfg = Ft_runtime.Engine.default_config) ?policy
    ?(net_seed = 1) ~rounds () =
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  (match policy with
  | Some p -> ignore (Ft_os.Kernel.attach_net ~policy:p ~seed:net_seed kernel)
  | None -> ());
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:(pingpong_programs ~rounds) ()
  in
  r

let test_clean_transport_matches_reference () =
  let r = run_pingpong ~policy:Policy.reliable ~rounds:5 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check (list int)) "same output as the reliable kernel path"
    (pingpong_reference 5) r.Ft_runtime.Engine.visible

let storm = Policy.make ~drop:0.2 ~duplicate:0.05 ~reorder:0.1 ()

let test_storm_all_protocols () =
  (* 20% loss + 5% duplication + 10% reordering: every protocol must
     still complete with exactly the reference output — retransmission
     and reassembly hide the wire entirely when nobody crashes. *)
  List.iter
    (fun spec ->
      let cfg =
        { Ft_runtime.Engine.default_config with protocol = spec }
      in
      let r = run_pingpong ~cfg ~policy:storm ~rounds:5 () in
      Alcotest.(check bool)
        (spec.Ft_core.Protocol.spec_name ^ " completes")
        true
        (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      Alcotest.(check (list int))
        (spec.Ft_core.Protocol.spec_name ^ " output")
        (pingpong_reference 5) r.Ft_runtime.Engine.visible)
    Ft_core.Protocols.figure8_extended

let test_storm_with_kill_consistent () =
  (* Loss and a stop failure together: rollback redelivery duplicates
     meet retransmission duplicates, and the output must still be
     consistent modulo duplicates. *)
  let cfg =
    { Ft_runtime.Engine.default_config with kills = [ (1_000_000, 1) ] }
  in
  let r = run_pingpong ~cfg ~policy:storm ~rounds:6 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "consistent modulo duplicates" true
    (Ft_core.Consistency.is_consistent
       ~reference:(pingpong_reference 6)
       ~observed:r.Ft_runtime.Engine.visible);
  Alcotest.(check bool) "Save-work upheld" true
    (Ft_core.Save_work.holds r.Ft_runtime.Engine.trace)

let test_permanent_partition_degrades () =
  (* The link never heals: instead of wedging in Block_recv forever, the
     retry budget runs out and the run ends Net_unreachable. *)
  let policy =
    Policy.make
      ~partitions:[ Policy.partition ~from_ns:0 ~until_ns:max_int () ]
      ()
  in
  let r = run_pingpong ~policy ~rounds:3 () in
  Alcotest.(check bool) "degraded, not wedged" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Net_unreachable)

(* Three processes for the 2PC tests: the usual ping-pong pair plus a
   bystander that sleeps through the run — live, so every global commit
   must include it, but off the data path, so a partition between it and
   the coordinator exercises exactly the prepare timeout. *)
let threeproc_programs ~rounds =
  let pp = pingpong_programs ~rounds in
  let bystander =
    program [ func "main" [] [ Sleep (Int 50_000) ] ]
  in
  [| pp.(0); pp.(1); Ft_vm.Asm.compile bystander |]

let run_threeproc ?(cfg = Ft_runtime.Engine.default_config) ~policy ~rounds ()
    =
  let kernel = Ft_os.Kernel.create ~nprocs:3 () in
  ignore (Ft_os.Kernel.attach_net ~policy ~seed:1 kernel);
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:(threeproc_programs ~rounds) ()
  in
  r

let test_2pc_rides_out_healing_partition () =
  (* The bystander is unreachable when the first visible triggers a
     global commit; the coordinator presumes abort, backs off, and the
     healed partition lets a later round commit.  Nothing wedges and the
     output is exact. *)
  let policy =
    Policy.make
      ~partitions:
        [
          Policy.partition ~src:0 ~dst:2 ~from_ns:0 ~until_ns:2_000_000 ();
        ]
      ()
  in
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cpv_2pc }
  in
  let r = run_threeproc ~cfg ~policy ~rounds:3 () in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check (list int)) "exact output" (pingpong_reference 3)
    r.Ft_runtime.Engine.visible;
  Alcotest.(check bool) "at least one round presumed aborted" true
    (r.Ft_runtime.Engine.aborted_rounds > 0);
  (* No crashes in this run, so nothing can be orphaned by the aborted
     rounds.  (Whole-trace Save-work is raced by the server halting
     before the client's final round — a property of 2PC with halted
     participants on the reliable path too, not of the timeout.) *)
  Alcotest.(check (list int)) "no orphans" []
    (Ft_core.Save_work.orphans r.Ft_runtime.Engine.trace)

let test_2pc_permanent_partition_gives_up () =
  let policy =
    Policy.make
      ~partitions:
        [ Policy.partition ~src:0 ~dst:2 ~from_ns:0 ~until_ns:max_int () ]
      ()
  in
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cpv_2pc }
  in
  let r = run_threeproc ~cfg ~policy ~rounds:3 () in
  Alcotest.(check bool) "degraded to Net_unreachable" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Net_unreachable);
  Alcotest.(check int) "the first round and 8 retries aborted" 9
    r.Ft_runtime.Engine.aborted_rounds;
  (* The coordinator reaches its first round at 281_088 ns, then waits
     out a 2 ms presumed-abort timeout doubling over the 8 retries
     (2 + 4 + ... + 256 ms) before it gives up. *)
  Alcotest.(check int) "doubling 2 ms timeouts charged"
    (281_088 + (2_000_000 * 255))
    r.Ft_runtime.Engine.sim_time_ns

(* --- the duplicate-filter audit (satellite regression) ------------------- *)

(* A message that is BOTH retransmitted (the sender's rollback replays
   the send through the transport, minting a fresh wire sequence for the
   same msg_seq) AND redelivered after receiver rollback (the recovery
   buffer requeues it) must be consumed exactly once.  This is the
   layering the whole stack leans on: wire-level duplicates die in the
   transport's reassembly buffer, replay duplicates die in the kernel's
   per-sender msg_seq filter, and rollback redelivery bypasses both by
   requeuing the original message with its original msg_seq. *)
let test_retransmit_plus_redelivery_consumed_once () =
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  let tr =
    Ft_os.Kernel.attach_net
      ~policy:(Policy.make ~duplicate:1.0 ())
      ~seed:5 kernel
  in
  let recv ~now =
    match
      Ft_os.Kernel.service kernel ~pid:1 ~now ~a0:0 ~a1:0
        Ft_vm.Syscall.Try_recv
    with
    | Ft_os.Kernel.Served s -> Option.value ~default:(-1) s.Ft_os.Kernel.r0
    | _ -> Alcotest.fail "Try_recv blocked or panicked"
  in
  let send ~now =
    match
      Ft_os.Kernel.service kernel ~pid:0 ~now ~a0:1 ~a1:77 Ft_vm.Syscall.Send
    with
    | Ft_os.Kernel.Served _ -> ()
    | _ -> Alcotest.fail "Send failed"
  in
  (* sender snapshot before the send, receiver snapshot before consuming *)
  let sender_pre = Ft_os.Kernel.snapshot_kstate kernel 0 in
  let receiver_pre = Ft_os.Kernel.snapshot_kstate kernel 1 in
  send ~now:0;
  drain ~nprocs:2 tr;
  (* wire duplication happened below the kernel *)
  Alcotest.(check bool) "wire duplicated the frame" true
    ((Transport.stats tr).Transport.dup_frames > 0);
  Alcotest.(check int) "first consume" 77 (recv ~now:1_000_000);
  (* receiver rolls back: the consumed message is requeued *)
  Ft_os.Kernel.restore_kstate kernel 1 receiver_pre;
  Ft_os.Kernel.requeue_uncommitted kernel 1;
  (* sender rolls back too and replays its send: same msg_seq, fresh
     wire sequence — a retransmission-shaped duplicate *)
  Ft_os.Kernel.restore_kstate kernel 0 sender_pre;
  send ~now:2_000_000;
  drain ~nprocs:2 tr;
  Alcotest.(check int) "redelivered original consumed once" 77
    (recv ~now:3_000_000);
  Alcotest.(check int) "replayed duplicate filtered" (-1)
    (recv ~now:3_000_001);
  Alcotest.(check int) "still nothing" (-1) (recv ~now:3_000_002)

let () =
  Alcotest.run "ft_net"
    [
      ( "transport",
        [
          Alcotest.test_case "reliable in order" `Quick test_reliable_in_order;
          Alcotest.test_case "reorder hidden by reassembly" `Quick
            test_reorder_still_in_order;
          Alcotest.test_case "duplicates deduped" `Quick
            test_duplicates_deduped;
          Alcotest.test_case "loss recovered" `Quick
            test_loss_recovered_by_retransmission;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "permanent partition exhausts budget" `Quick
            test_permanent_partition_exhausts_budget;
          Alcotest.test_case "asymmetric ack loss" `Quick
            test_asymmetric_ack_loss;
          Alcotest.test_case "paced burst (golden)" `Quick test_burst_golden;
          QCheck_alcotest.to_alcotest dv_piggyback_roundtrip_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clean transport matches reference" `Quick
            test_clean_transport_matches_reference;
          Alcotest.test_case "storm, all protocols" `Quick
            test_storm_all_protocols;
          Alcotest.test_case "storm with kill consistent" `Quick
            test_storm_with_kill_consistent;
          Alcotest.test_case "permanent partition degrades" `Quick
            test_permanent_partition_degrades;
          Alcotest.test_case "2pc rides out healing partition" `Quick
            test_2pc_rides_out_healing_partition;
          Alcotest.test_case "2pc permanent partition gives up" `Quick
            test_2pc_permanent_partition_gives_up;
        ] );
      ( "dup filter",
        [
          Alcotest.test_case "retransmit + redelivery consumed once" `Quick
            test_retransmit_plus_redelivery_consumed_once;
        ] );
    ]
