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
let make_transport ?policy ~nprocs ~seed () =
  let log = Array.make nprocs [] in
  let deliver ~at:_ ~src:_ ~dst v = log.(dst) <- v :: log.(dst) in
  let t =
    Transport.create ?policy ~seed ~nprocs
      ~latency_ns:latency ~jitter_ns:jitter ~deliver ()
  in
  (t, fun dst -> List.rev log.(dst))

(* Pump at [now] and return the next queued event time.  An event at or
   before [now] that survives the pump fails the test: a drain loop
   would otherwise pump the same instant forever. *)
let pump_next ~nprocs t ~now =
  Transport.pump t ~now;
  match Transport.next_event_in t ~lo:0 ~hi:nprocs with
  | Some at when at <= now ->
      Alcotest.failf "event at %d still queued after pump ~now:%d" at now
  | next -> next

(* Advance simulated time event by event until the queue of an
   [nprocs]-process transport drains.  The retry budget bounds the
   queue, so this always terminates. *)
let drain ~nprocs t =
  let rec go = function
    | Some now -> go (pump_next ~nprocs t ~now)
    | None -> ()
  in
  go (Transport.next_event_in t ~lo:0 ~hi:nprocs)

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
  let t, got = make_transport ~policy ~nprocs:2 ~seed:13 () in
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
  let t, got = make_transport ~policy ~nprocs:2 ~seed:21 () in
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
  let rec drain_from now = function
    | Some ts ->
        let now = max (now + 1) ts in
        drain_from now (pump_next ~nprocs:2 t ~now)
    | None -> ()
  in
  drain_from (n * gap) (Transport.next_event_in t ~lo:0 ~hi:2);
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
    QCheck.(triple (In_range.int 1 30) (0 -- 1000) (0 -- 2))
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

(* The integer backoff equals the float formula it replaced
   ([Transport_reference]'s [rto_ns * 2.0 ** attempts], capped): a frame
   on a permanently partitioned link is retried at the same times by
   both transports, over the whole retry budget, at initial timeouts
   ([4 * latency], floor 1us) below, at and above the 50ms cap. *)
let test_backoff_matches_float () =
  let policy _ _ =
    Policy.make
      ~partitions:[ Policy.partition ~from_ns:0 ~until_ns:max_int () ]
      ()
  in
  List.iter
    (fun latency_ns ->
      let deliver ~at:_ ~src:_ ~dst:_ () = () in
      let t =
        Transport.create ~policy ~seed:5 ~nprocs:2 ~latency_ns ~jitter_ns:0
          ~deliver ()
      and r =
        Transport_reference.create ~policy ~seed:5 ~nprocs:2 ~latency_ns
          ~jitter_ns:0 ~deliver ()
      in
      Transport.send t ~now:0 ~src:0 ~dst:1 ();
      Transport_reference.send r ~now:0 ~src:0 ~dst:1 ();
      let rec retries n =
        let at = Transport.next_event_in t ~lo:0 ~hi:2 in
        Alcotest.(check (option int))
          (Printf.sprintf "latency %d, retry %d" latency_ns n)
          (Transport_reference.next_event_in r ~lo:0 ~hi:2)
          at;
        match at with
        | Some now ->
            Transport.pump t ~now;
            Transport_reference.pump r ~now;
            retries (n + 1)
        | None -> n
      in
      Alcotest.(check int) "every timer of the budget fired" 17 (retries 0))
    [ 100; 833; 48_828; 180_000; 190_735; 3_125_000; 12_499_999;
      12_500_000; 20_000_000 ]

(* --- the pump's event queue --------------------------------------------- *)

(* The heap's root is the queue's earliest time, so an idle pump is
   one compare.  Random sends and pumps at a nondecreasing clock over a
   lossy, duplicating, reordering 3-process wire: after every pump
   nothing queued may be due any more, and once drained every link has
   delivered its payloads exactly once and in order (a prefix of them
   if the link exhausted a retry budget). *)
let pump_leaves_nothing_due_prop =
  QCheck.Test.make ~name:"pump leaves nothing due; delivery unchanged"
    ~count:200
    QCheck.(pair (0 -- 1000) (list (triple (0 -- 2) (0 -- 2) (0 -- 300_000))))
    (fun (seed, ops) ->
      let nprocs = 3 in
      let policy _ _ =
        Policy.make ~drop:0.2 ~duplicate:0.1 ~reorder:0.3 ~reorder_ns:400_000
          ()
      in
      let link src dst = (src * nprocs) + dst in
      let got = Array.make (nprocs * nprocs) [] in
      let deliver ~at:_ ~src ~dst i =
        got.(link src dst) <- i :: got.(link src dst)
      in
      let t =
        Transport.create ~policy ~seed ~nprocs ~latency_ns:latency
          ~jitter_ns:jitter ~deliver ()
      in
      let pump now =
        Transport.pump t ~now;
        match Transport.next_event_in t ~lo:0 ~hi:nprocs with
        | Some at when at <= now ->
            QCheck.Test.fail_reportf "event at %d still queued after pump ~now:%d"
              at now
        | next -> next
      in
      let sent = Array.make (nprocs * nprocs) 0 in
      (* [(p, p, dt)] advances the clock by [dt] and pumps; any other
         triple is a send at the current clock. *)
      let now =
        List.fold_left
          (fun now (src, dst, dt) ->
            if src = dst then begin
              ignore (pump (now + dt) : int option);
              now + dt
            end
            else begin
              Transport.send t ~now ~src ~dst sent.(link src dst);
              sent.(link src dst) <- sent.(link src dst) + 1;
              now
            end)
          0 ops
      in
      let rec drain now =
        match pump now with Some at -> drain at | None -> ()
      in
      drain now;
      List.for_all
        (fun l ->
          let d = List.rev got.(l) and n = sent.(l) in
          d = List.init (List.length d) Fun.id
          && (List.length d = n
             || List.length d < n
                && Transport.link_failed t ~src:(l / nprocs)
                     ~dst:(l mod nprocs)))
        (List.init (nprocs * nprocs) Fun.id))

(* A range that covers the whole transport is answered from the heap's
   root; every narrower range scans the queue.  On random
   sends and pumps over a lossy 3-process wire, the whole-range answer
   must equal the earliest of the per-pid scans after every operation,
   and so must a range wider than the transport. *)
let next_event_fast_path_prop =
  QCheck.Test.make ~name:"whole-range next event equals the scan"
    ~count:200
    QCheck.(pair (0 -- 1000) (list (triple (0 -- 2) (0 -- 2) (0 -- 300_000))))
    (fun (seed, ops) ->
      let nprocs = 3 in
      let policy _ _ =
        Policy.make ~drop:0.2 ~duplicate:0.1 ~reorder:0.3 ~reorder_ns:400_000
          ()
      in
      let t =
        Transport.create ~policy ~seed ~nprocs ~latency_ns:latency
          ~jitter_ns:jitter ~deliver:(fun ~at:_ ~src:_ ~dst:_ _ -> ()) ()
      in
      let agrees () =
        let scanned =
          List.fold_left
            (fun acc p ->
              match (acc, Transport.next_event_in t ~lo:p ~hi:(p + 1)) with
              | None, x | x, None -> x
              | Some a, Some b -> Some (min a b))
            None (List.init nprocs Fun.id)
        in
        Transport.next_event_in t ~lo:0 ~hi:nprocs = scanned
        && Transport.next_event_in t ~lo:(-1) ~hi:(nprocs + 1) = scanned
      in
      (* [(p, p, dt)] advances the clock by [dt] and pumps; any other
         triple is a send at the current clock. *)
      let rec go now = function
        | [] -> agrees ()
        | (src, dst, dt) :: rest ->
            let now =
              if src = dst then begin
                Transport.pump t ~now:(now + dt);
                now + dt
              end
              else begin
                Transport.send t ~now ~src ~dst 0;
                now
              end
            in
            agrees () && go now rest
      in
      agrees () && go 0 ops)

(* The heap queue fires events in the order the [Map] queue it replaced
   did: random scripts of sends (several at one instant, and with a
   small jitter colliding arrival times, so the insertion id breaks
   ties), pumps at a nondecreasing clock and ranged next-event queries
   over a lossy, duplicating, reordering 3-4 process wire, then a drain.
   The transport and the test-only copy of the old one
   ([Transport_reference]) must log the same deliveries in callback
   order, give the same ranged answers and end with the same stats. *)
let heap_order_prop =
  QCheck.Test.make ~name:"heap queue fires in the map queue's order"
    ~count:300
    QCheck.(
      triple
        (pair (0 -- 1000)
           (pair
              (oneofl ~print:string_of_int [ 3; 4 ])
              (oneofl ~print:string_of_int [ 0; 1; 7; 60_000 ])))
        (float_bound_inclusive 0.3)
        (small_list (quad (0 -- 5) (0 -- 4) (0 -- 4) (0 -- 300_000))))
    (fun ((seed, (nprocs, jitter_ns)), drop, ops) ->
      let policy _ _ =
        Policy.make ~drop ~duplicate:0.2 ~reorder:0.3 ~reorder_ns:50_000 ()
      in
      let log = ref [] and ref_log = ref [] in
      let t =
        Transport.create ~policy ~seed ~nprocs ~latency_ns:latency ~jitter_ns
          ~deliver:(fun ~at ~src ~dst v -> log := (at, src, dst, v) :: !log)
          ()
      in
      let r =
        Transport_reference.create ~policy ~seed ~nprocs ~latency_ns:latency
          ~jitter_ns
          ~deliver:(fun ~at ~src ~dst v ->
            ref_log := (at, src, dst, v) :: !ref_log)
          ()
      in
      let answers = ref [] and ref_answers = ref [] in
      let query lo hi =
        answers := Transport.next_event_in t ~lo ~hi :: !answers;
        ref_answers :=
          Transport_reference.next_event_in r ~lo ~hi :: !ref_answers
      in
      let pump now =
        Transport.pump t ~now;
        Transport_reference.pump r ~now
      in
      (* [(0..2, a, b, _)] sends a fresh payload from [a] to [b] at the
         current clock; [(3..4, _, _, dt)] advances the clock by [dt] and
         pumps; [(5, a, b, _)] asks for the next event of pids
         [a - 1, a - 1 + b), an empty, partial, whole or wider range. *)
      let now, _ =
        List.fold_left
          (fun (now, next) (k, a, b, dt) ->
            if k <= 2 then begin
              let src = a mod nprocs in
              let dst =
                if b mod nprocs = src then (src + 1) mod nprocs
                else b mod nprocs
              in
              Transport.send t ~now ~src ~dst next;
              Transport_reference.send r ~now ~src ~dst next;
              (now, next + 1)
            end
            else if k <= 4 then begin
              pump (now + dt);
              (now + dt, next)
            end
            else begin
              query (a - 1) (a - 1 + b);
              (now, next)
            end)
          (0, 0) ops
      in
      let rec drain now =
        query 0 nprocs;
        query 1 nprocs;
        match Transport.next_event_in t ~lo:0 ~hi:nprocs with
        | Some at when at >= now ->
            pump at;
            drain at
        | _ -> ()
      in
      drain now;
      let stats s =
        Transport.
          [ s.sends; s.transmissions; s.retransmits; s.deliveries;
            s.dup_frames; s.dropped; s.cut; s.acks; s.gave_up ]
      and ref_stats s =
        Transport_reference.
          [ s.sends; s.transmissions; s.retransmits; s.deliveries;
            s.dup_frames; s.dropped; s.cut; s.acks; s.gave_up ]
      in
      let show_log l =
        String.concat " "
          (List.rev_map
             (fun (at, src, dst, v) -> Printf.sprintf "%d:%d>%d#%d" at src dst v)
             l)
      in
      let show_answers l =
        String.concat " "
          (List.rev_map
             (function None -> "-" | Some at -> string_of_int at)
             l)
      in
      let show_stats l = String.concat "," (List.map string_of_int l) in
      if !log <> !ref_log then
        QCheck.Test.fail_reportf "deliveries differ:\nheap: %s\nmap:  %s"
          (show_log !log) (show_log !ref_log)
      else if !answers <> !ref_answers then
        QCheck.Test.fail_reportf "ranged answers differ:\nheap: %s\nmap:  %s"
          (show_answers !answers) (show_answers !ref_answers)
      else if stats (Transport.stats t) <> ref_stats (Transport_reference.stats r)
      then
        QCheck.Test.fail_reportf "stats differ:\nheap: %s\nmap:  %s"
          (show_stats (stats (Transport.stats t)))
          (show_stats (ref_stats (Transport_reference.stats r)))
      else true)

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
  Ft_os.Kernel.rollback kernel 1 receiver_pre;
  (* sender rolls back too and replays its send: same msg_seq, fresh
     wire sequence — a retransmission-shaped duplicate *)
  Ft_os.Kernel.rollback kernel 0 sender_pre;
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
          Alcotest.test_case "backoff equals the float formula" `Quick
            test_backoff_matches_float;
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
      ( "pump",
        [ QCheck_alcotest.to_alcotest pump_leaves_nothing_due_prop;
          QCheck_alcotest.to_alcotest next_event_fast_path_prop;
          QCheck_alcotest.to_alcotest heap_order_prop ] );
    ]
