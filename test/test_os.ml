(* Tests for the kernel model: input scripting and think time, event
   classification, the network (ordering, duplicate filtering, recovery
   buffer), files, signals, and OS fault mechanics. *)

let mk ?(nprocs = 2) () = Ft_os.Kernel.create ~nprocs ()
let all_live _ = true

let serve ?(now = 0) ?(a0 = 0) ?(a1 = 0) k pid sys =
  match Ft_os.Kernel.service k ~pid ~now ~a0 ~a1 sys with
  | Ft_os.Kernel.Served s -> s
  | Ft_os.Kernel.Block_recv -> Alcotest.fail "unexpected block"
  | Ft_os.Kernel.Panic -> Alcotest.fail "unexpected panic"

let test_input_script_and_think_time () =
  let k = mk () in
  Ft_os.Kernel.set_input k 0
    (Ft_os.Kernel.scripted_input ~start:5000 ~interval_ns:100 [ 10; 20 ]);
  let s1 = serve k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "first token" (Some 10) s1.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "first gap from start" (Some 5000)
    s1.Ft_os.Kernel.new_time;
  let s2 = serve ~now:5000 k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "second token" (Some 20) s2.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "think time after response" (Some 5100)
    s2.Ft_os.Kernel.new_time;
  let s3 = serve k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "exhausted" (Some (-1)) s3.Ft_os.Kernel.r0

let test_absolute_input_open_loop () =
  (* Open-loop arrivals: each token is ready at its own absolute time.
     An early reader waits for the arrival; a late reader drains the
     backlog at [now] — the missed schedule shows up as latency, never
     as schedule slip. *)
  let k = mk ~nprocs:1 () in
  Ft_os.Kernel.set_input_absolute k 0
    (Ft_os.Kernel.open_loop_input ~start:100 ~interval_ns:1_000 [ 7; 8; 9 ]);
  let s1 = serve ~now:0 k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "first token" (Some 7) s1.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "early reader waits for arrival" (Some 100)
    s1.Ft_os.Kernel.new_time;
  (* tokens due at 1100 and 2100, both read at now = 5000 *)
  let s2 = serve ~now:5_000 k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "second token" (Some 8) s2.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "backlog served at now" (Some 5_000)
    s2.Ft_os.Kernel.new_time;
  let s3 = serve ~now:5_000 k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "third token" (Some 9) s3.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "no think-time shift" (Some 5_000)
    s3.Ft_os.Kernel.new_time;
  let s4 = serve ~now:5_000 k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "exhausted" (Some (-1)) s4.Ft_os.Kernel.r0

let test_event_classification () =
  let k = mk () in
  let time_ev = (serve k 0 Ft_vm.Syscall.Gettimeofday).Ft_os.Kernel.ev in
  (match time_ev with
  | Ft_os.Kernel.Ev_nd (Ft_core.Event.Transient, false) -> ()
  | _ -> Alcotest.fail "gettimeofday must be transient unloggable ND");
  Ft_os.Kernel.set_input k 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:0 [ 1 ]);
  (match (serve k 0 Ft_vm.Syscall.Read_input).Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_nd (Ft_core.Event.Fixed, true) -> ()
  | _ -> Alcotest.fail "input must be fixed loggable ND");
  match (serve ~a0:77 k 0 Ft_vm.Syscall.Write_output).Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_visible 77 -> ()
  | _ -> Alcotest.fail "write_output must be visible"

let test_send_recv_roundtrip () =
  let k = mk () in
  let s = serve ~a0:1 ~a1:123 k 0 Ft_vm.Syscall.Send in
  (match s.Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_send { dest = 1; _ } -> ()
  | _ -> Alcotest.fail "send event");
  let r = serve k 1 Ft_vm.Syscall.Recv in
  Alcotest.(check (option int)) "payload" (Some 123) r.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "sender" (Some 0) r.Ft_os.Kernel.r1;
  match Ft_os.Kernel.service k ~pid:1 ~now:0 ~a0:0 ~a1:0 Ft_vm.Syscall.Recv with
  | Ft_os.Kernel.Block_recv -> ()
  | _ -> Alcotest.fail "empty mailbox must block"

let test_duplicate_filtering () =
  (* A rolled-back sender re-sends with the same sequence number; the
     receiver's filter drops it (redoable sends, §2.1). *)
  let k = mk () in
  let snap = Ft_os.Kernel.snapshot_kstate k 0 in
  ignore (serve ~a0:1 ~a1:5 k 0 Ft_vm.Syscall.Send);
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  Ft_os.Kernel.commit k 1 ~live:all_live;
  (* sender rolls back before the send and re-executes it *)
  Ft_os.Kernel.rollback k 0 snap;
  ignore (serve ~a0:1 ~a1:5 k 0 Ft_vm.Syscall.Send);
  match Ft_os.Kernel.service k ~pid:1 ~now:0 ~a0:0 ~a1:0 Ft_vm.Syscall.Recv with
  | Ft_os.Kernel.Block_recv -> () (* duplicate silently dropped *)
  | Ft_os.Kernel.Served s ->
      Alcotest.failf "duplicate delivered: %d" (Option.get s.Ft_os.Kernel.r0)
  | Ft_os.Kernel.Panic -> Alcotest.fail "panic"

let test_recovery_buffer_redelivery () =
  (* Messages consumed since the receiver's last commit are requeued on
     rollback, in order. *)
  let k = mk () in
  ignore (serve ~a0:1 ~a1:100 k 0 Ft_vm.Syscall.Send);
  ignore (serve ~a0:1 ~a1:200 k 0 Ft_vm.Syscall.Send);
  let receiver_snap = Ft_os.Kernel.snapshot_kstate k 1 in
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  (* receiver crashes and rolls back without having committed *)
  Ft_os.Kernel.rollback k 1 receiver_snap;
  let a = serve k 1 Ft_vm.Syscall.Recv in
  let b = serve k 1 Ft_vm.Syscall.Recv in
  Alcotest.(check (option int)) "first redelivered" (Some 100)
    a.Ft_os.Kernel.r0;
  Alcotest.(check (option int)) "second redelivered" (Some 200)
    b.Ft_os.Kernel.r0

let test_files_and_disk_full () =
  let k = Ft_os.Kernel.create ~nprocs:1 ~fs_capacity:2 () in
  let fd =
    Option.get (serve ~a0:9 k 0 Ft_vm.Syscall.Open_file).Ft_os.Kernel.r0
  in
  Alcotest.(check bool) "fd valid" true (fd >= 0);
  let w1 = serve ~a0:fd ~a1:11 k 0 Ft_vm.Syscall.Write_file in
  Alcotest.(check (option int)) "write ok" (Some 1) w1.Ft_os.Kernel.r0;
  ignore (serve ~a0:fd ~a1:22 k 0 Ft_vm.Syscall.Write_file);
  let w3 = serve ~a0:fd ~a1:33 k 0 Ft_vm.Syscall.Write_file in
  Alcotest.(check (option int)) "disk full" (Some (-1)) w3.Ft_os.Kernel.r0;
  (match w3.Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_nd (Ft_core.Event.Fixed, false) -> ()
  | _ -> Alcotest.fail "disk-full is a fixed ND event");
  Alcotest.(check int) "file contents" 2 (Ft_os.Kernel.file_length k 0 9);
  Alcotest.(check (option int)) "word readable" (Some 22)
    (Ft_os.Kernel.file_word k 0 9 1)

let test_open_file_table_full () =
  let k = Ft_os.Kernel.create ~nprocs:1 ~max_open_files:1 () in
  ignore (serve ~a0:1 k 0 Ft_vm.Syscall.Open_file);
  let s = serve ~a0:2 k 0 Ft_vm.Syscall.Open_file in
  Alcotest.(check (option int)) "table full" (Some (-1)) s.Ft_os.Kernel.r0;
  match s.Ft_os.Kernel.ev with
  | Ft_os.Kernel.Ev_nd (Ft_core.Event.Fixed, false) -> ()
  | _ -> Alcotest.fail "table-full is a fixed ND event"

let test_timer_signals () =
  let k = mk () in
  Ft_os.Kernel.set_timer_signal k 0 ~period_ns:100 ~first_at:50;
  Alcotest.(check bool) "not yet" false (Ft_os.Kernel.poll_signal k 0 ~now:49);
  Alcotest.(check bool) "fires" true (Ft_os.Kernel.poll_signal k 0 ~now:60);
  Alcotest.(check bool) "consumed" false
    (Ft_os.Kernel.poll_signal k 0 ~now:60);
  Alcotest.(check bool) "next period" true
    (Ft_os.Kernel.poll_signal k 0 ~now:160)

let test_os_fault_corruption_and_panic () =
  let k = mk () in
  Ft_os.Kernel.set_os_fault k
    {
      Ft_os.Kernel.panic_at = 5_000;
      touches = (fun s -> s = Ft_vm.Syscall.Gettimeofday);
      corrupt_bit = 4;
      poke_probability = 0.;
      propagated = false;
    };
  let s1 = serve ~now:1_000 k 0 Ft_vm.Syscall.Gettimeofday in
  (* gettimeofday returns now/1000 = 1, corrupted to 1 xor 16 *)
  Alcotest.(check (option int)) "bit flipped" (Some (1 lxor 16))
    s1.Ft_os.Kernel.r0;
  (match Ft_os.Kernel.os_fault k with
  | Some f -> Alcotest.(check bool) "propagated" true f.Ft_os.Kernel.propagated
  | None -> Alcotest.fail "fault gone");
  (match Ft_os.Kernel.service k ~pid:0 ~now:6_000 ~a0:0 ~a1:0
           Ft_vm.Syscall.Random with
  | Ft_os.Kernel.Panic -> ()
  | _ -> Alcotest.fail "expected panic after the deadline");
  Alcotest.(check bool) "panicked" true (Ft_os.Kernel.panicked k);
  Ft_os.Kernel.clear_os_fault k;
  Alcotest.(check bool) "cleared" false (Ft_os.Kernel.panicked k)

let test_kstate_snapshot_roundtrip () =
  let k = mk () in
  Ft_os.Kernel.set_input k 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:10 [ 1; 2; 3 ]);
  let snap = Ft_os.Kernel.snapshot_kstate k 0 in
  ignore (serve k 0 Ft_vm.Syscall.Read_input);
  ignore (serve k 0 Ft_vm.Syscall.Read_input);
  Ft_os.Kernel.rollback k 0 snap;
  let s = serve k 0 Ft_vm.Syscall.Read_input in
  Alcotest.(check (option int)) "input position rolled back" (Some 1)
    s.Ft_os.Kernel.r0

let test_det_log_cap_and_flush () =
  let k = mk () in
  Alcotest.(check bool) "no log without tracking" false
    (Ft_os.Kernel.note_nd k 0 ~taints:true);
  Alcotest.(check int) "nothing recorded without tracking" 0
    (Ft_os.Kernel.det_live k);
  Ft_os.Kernel.enable_dependency_tracking k;
  Alcotest.(check int) "uncapped by default" 0 (Ft_os.Kernel.det_cap k);
  Ft_os.Kernel.set_det_cap k 3;
  Alcotest.(check int) "cap readable" 3 (Ft_os.Kernel.det_cap k);
  for _ = 1 to 3 do
    Alcotest.(check bool) "under cap" false
      (Ft_os.Kernel.note_nd k 0 ~taints:false)
  done;
  Alcotest.(check bool) "over cap signals flush" true
    (Ft_os.Kernel.note_nd k 1 ~taints:false);
  Alcotest.(check int) "live counts both owners" 4 (Ft_os.Kernel.det_live k);
  Alcotest.(check int) "high water tracks peak" 4
    (Ft_os.Kernel.det_high_water k);
  Ft_os.Kernel.set_det_cap k 0;
  Alcotest.(check bool) "cap 0 disables the signal" false
    (Ft_os.Kernel.note_nd k 0 ~taints:false)

let test_det_log_commit_retire_drop () =
  let k = mk () in
  Ft_os.Kernel.enable_dependency_tracking k;
  for _ = 1 to 3 do
    ignore (Ft_os.Kernel.note_nd k 0 ~taints:true)
  done;
  Alcotest.(check int) "three live for owner" 3 (Ft_os.Kernel.det_live k);
  (* Another process's commit runs the GC, which retires nothing of
     p0's: the watermark is derived from committed state only. *)
  Ft_os.Kernel.commit k 1 ~live:all_live;
  Alcotest.(check int) "nothing retirable uncommitted" 3
    (Ft_os.Kernel.det_live k);
  (* p1 comes to depend on p0's ND, then p0 commits: p1's uncommitted
     dependence pins p0's committed determinants. *)
  ignore (serve ~a0:1 ~a1:5 k 0 Ft_vm.Syscall.Send);
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  let snap = Ft_os.Kernel.snapshot_kstate k 0 in
  Ft_os.Kernel.commit k 0 ~live:all_live;
  Alcotest.(check int) "a live dependent pins the log" 3
    (Ft_os.Kernel.det_live k);
  ignore (Ft_os.Kernel.note_nd k 0 ~taints:true);
  ignore (Ft_os.Kernel.note_nd k 0 ~taints:true);
  (* Rollback discards only the dead (post-commit) lineage. *)
  Ft_os.Kernel.rollback k 0 snap;
  Alcotest.(check int) "uncommitted tail dropped" 3 (Ft_os.Kernel.det_live k);
  Alcotest.(check int) "peak included the dead tail" 5
    (Ft_os.Kernel.det_high_water k);
  (* p1's commit makes its dependence committed: p0's prefix retires. *)
  Ft_os.Kernel.commit k 1 ~live:all_live;
  Alcotest.(check int) "committed prefix retired" 0 (Ft_os.Kernel.det_live k);
  (* Re-entrancy: a second commit pass must not move the watermark or
     drive the live count negative. *)
  Ft_os.Kernel.commit k 1 ~live:all_live;
  Alcotest.(check int) "watermark monotone" 0 (Ft_os.Kernel.det_live k);
  (* Only live processes pin: a halted dependent publishes nothing. *)
  ignore (Ft_os.Kernel.note_nd k 0 ~taints:true);
  ignore (serve ~a0:1 ~a1:6 k 0 Ft_vm.Syscall.Send);
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  Ft_os.Kernel.commit k 0 ~live:all_live;
  Alcotest.(check int) "pinned by live p1" 1 (Ft_os.Kernel.det_live k);
  Ft_os.Kernel.commit k 0 ~live:(fun q -> q <> 1);
  Alcotest.(check int) "halted p1 pins nothing" 0 (Ft_os.Kernel.det_live k)

(* The tally OS fault injection reads: one count per syscall, keyed by
   the syscall's position in [Syscall.all]. *)
let test_syscall_tally () =
  let k = mk () in
  List.iter
    (fun s -> ignore (serve k 0 s))
    Ft_vm.Syscall.[ Gettimeofday; Yield; Gettimeofday; Sleep ];
  List.iteri
    (fun i s ->
      Alcotest.(check int) "index is the position in all" i
        (Ft_vm.Syscall.index s);
      let want =
        match s with
        | Ft_vm.Syscall.Gettimeofday -> 2
        | Yield | Sleep -> 1
        | _ -> 0
      in
      Alcotest.(check int) (Ft_vm.Syscall.to_string s) want
        (Ft_os.Kernel.syscall_count k s))
    Ft_vm.Syscall.all;
  Alcotest.(check int) "count is the length of all"
    (List.length Ft_vm.Syscall.all) Ft_vm.Syscall.count

(* The recovery buffer's requeue order: the messages consumed since the
   commit come back in consumption order, ahead of the ones still
   pending, minus any a sender rollback killed. *)
let test_recovery_buffer_requeue_order () =
  let k = mk ~nprocs:3 () in
  Ft_os.Kernel.enable_dependency_tracking k;
  let p1_snap = Ft_os.Kernel.snapshot_kstate k 1 in
  List.iter
    (fun (src, v) -> ignore (serve ~a0:2 ~a1:v k src Ft_vm.Syscall.Send))
    [ (0, 10); (1, 20); (0, 11); (0, 12) ];
  let snap = Ft_os.Kernel.snapshot_kstate k 2 in
  Ft_os.Kernel.commit k 2 ~live:all_live;
  let recv () = (serve k 2 Ft_vm.Syscall.Recv).Ft_os.Kernel.r0 in
  let consumed = List.init 3 (fun _ -> recv ()) in
  Alcotest.(check (list (option int))) "consumed in send order"
    [ Some 10; Some 20; Some 11 ] consumed;
  (* p1 rolls back to before its send: 20 is dead *)
  Ft_os.Kernel.rollback k 1 p1_snap;
  Ft_os.Kernel.rollback k 2 snap;
  let again = List.init 3 (fun _ -> recv ()) in
  Alcotest.(check (list (option int))) "consumed first, in order, then pending"
    [ Some 10; Some 11; Some 12 ] again;
  match Ft_os.Kernel.service k ~pid:2 ~now:0 ~a0:0 ~a1:0 Ft_vm.Syscall.Recv with
  | Ft_os.Kernel.Block_recv -> ()
  | _ -> Alcotest.fail "the dead message must not come back"

(* The lineage the kernel restores with a process: its dependency vector
   and its confirmed-stable marks roll back to the newest commit. *)
let test_lineage_rollback () =
  let k = mk () in
  Ft_os.Kernel.enable_dependency_tracking k;
  (* p1 executes tainting ND and tells p0, which then commits *)
  ignore (Ft_os.Kernel.note_nd k 1 ~taints:true);
  ignore (serve ~a0:0 ~a1:7 k 1 Ft_vm.Syscall.Send);
  ignore (serve k 0 Ft_vm.Syscall.Recv);
  let snap = Ft_os.Kernel.snapshot_kstate k 0 in
  Ft_os.Kernel.commit k 0 ~live:all_live;
  Alcotest.(check bool) "p0 depends on p1's unconfirmed ND" true
    (Ft_os.Kernel.unconfirmed k ~by:0 1);
  Alcotest.(check bool) "a commit alone leaves p0 untainted" false
    (Ft_os.Kernel.self_tainted k 0);
  Ft_os.Kernel.confirm k ~by:0 1;
  Alcotest.(check bool) "the ack confirms it" false
    (Ft_os.Kernel.unconfirmed k ~by:0 1);
  (* p0 taints itself after the commit and tells p1 *)
  ignore (Ft_os.Kernel.note_nd k 0 ~taints:true);
  ignore (serve ~a0:1 ~a1:8 k 0 Ft_vm.Syscall.Send);
  ignore (serve k 1 Ft_vm.Syscall.Recv);
  Alcotest.(check bool) "p0 tainted since its commit" true
    (Ft_os.Kernel.self_tainted k 0);
  Alcotest.(check bool) "p1 not orphaned while p0 stands" false
    (Ft_os.Kernel.orphaned k ~victim:0 1);
  Ft_os.Kernel.rollback k 0 snap;
  Alcotest.(check bool) "the confirmation rolled back" true
    (Ft_os.Kernel.unconfirmed k ~by:0 1);
  Alcotest.(check bool) "vector back at the committed one" false
    (Ft_os.Kernel.self_tainted k 0);
  Alcotest.(check bool) "p1 saw ND the rollback lost" true
    (Ft_os.Kernel.orphaned k ~victim:0 1);
  (* a confirmation the next commit snapshots survives a rollback *)
  Ft_os.Kernel.confirm k ~by:0 1;
  let snap = Ft_os.Kernel.snapshot_kstate k 0 in
  Ft_os.Kernel.commit k 0 ~live:all_live;
  Ft_os.Kernel.rollback k 0 snap;
  Alcotest.(check bool) "a committed confirmation stands" false
    (Ft_os.Kernel.unconfirmed k ~by:0 1)

let tests =
  [
    Alcotest.test_case "input script" `Quick test_input_script_and_think_time;
    Alcotest.test_case "absolute input open loop" `Quick
      test_absolute_input_open_loop;
    Alcotest.test_case "event classification" `Quick
      test_event_classification;
    Alcotest.test_case "send/recv roundtrip" `Quick test_send_recv_roundtrip;
    Alcotest.test_case "duplicate filtering" `Quick test_duplicate_filtering;
    Alcotest.test_case "recovery buffer" `Quick
      test_recovery_buffer_redelivery;
    Alcotest.test_case "recovery buffer requeue order" `Quick
      test_recovery_buffer_requeue_order;
    Alcotest.test_case "syscall tally" `Quick test_syscall_tally;
    Alcotest.test_case "files and disk full" `Quick test_files_and_disk_full;
    Alcotest.test_case "open file table full" `Quick
      test_open_file_table_full;
    Alcotest.test_case "timer signals" `Quick test_timer_signals;
    Alcotest.test_case "os fault mechanics" `Quick
      test_os_fault_corruption_and_panic;
    Alcotest.test_case "kstate snapshot" `Quick
      test_kstate_snapshot_roundtrip;
    Alcotest.test_case "det log cap and flush" `Quick
      test_det_log_cap_and_flush;
    Alcotest.test_case "det log commit/retire/drop" `Quick
      test_det_log_commit_retire_drop;
    Alcotest.test_case "lineage rollback" `Quick test_lineage_rollback;
  ]

let () = Alcotest.run "ft_os" [ ("kernel", tests) ]
