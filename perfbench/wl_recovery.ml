(* recovery: TreadMarks (4 message-passing processes) at scale 0.25
   under CPVS, CPV-2PC, CAUSAL-LOG and OPTIMISTIC, for [runs] sub-seeds
   each.  Every process gets Poisson stop-kills at 10 per simulated
   second, and a transport with 10% loss, 2% duplication and 5% reorder
   carries the messages.  Each faulted run is judged against a fault-free
   reference run of the same protocol on the reliable in-kernel network.

   The workload is sized so that no run fails.  Measured when it was
   sized, over kill seeds 1..N with the same loss:
   - legacy recovery ([policy = None]): 0 of 1200 runs failed at 10
     kills/s; at 50 kills/s, 5 of 32 runs deadlocked (CAUSAL-LOG and
     OPTIMISTIC, e.g. "3 visible events missing"), and at 2% loss 3 of 96
     still failed;
   - the [Policy.generic] ladder: 13 of 192 runs failed at 10 kills/s
     (CPV-2PC and both logging protocols), 21 of 32 at 50 kills/s;
   - [Policy.full]: 0 of 192 at 10 kills/s, 11 of 32 at 50 kills/s.
   So recovery stays on the legacy path, as serve's does.  The ladder
   and high-rate deadlocks are bugs to fix on their own, not noise for
   this benchmark to carry. *)

module Engine = Ft_runtime.Engine

let scale = 0.25
(* how much a pass does varies with the seed, through how many kills
   land and what they cost to recover: 8 kill seeds a protocol gave 44
   to 115 crashes a pass across seeds 1-10, so 16 average it out *)
let runs = 16
let kill_rate = 10.

let protocols =
  Ft_core.Protocols.[ cpvs; cpv_2pc; causal_log; optimistic ]

let weather = Ft_net.Policy.make ~drop:0.10 ~duplicate:0.02 ~reorder:0.05 ()

type run = {
  name : string;
  protocol : Ft_core.Protocol.spec;
  kills : (int * int) list;
  kernel : Ft_os.Kernel.t;
  transport : Ft_os.Kernel.message Ft_net.Transport.t;
  ref_kernel : Ft_os.Kernel.t;
}

let config ~protocol ~kills w =
  Ft_apps.Workload.engine_config w
    { Engine.default_config with protocol; kills; max_recovery_attempts = 10 }

(* MTTR: each crash to the first visible output after it. *)
let mttrs (r : Engine.result) =
  let outs = List.map (fun (_, _, t) -> t) r.Engine.visible_times in
  List.filter_map
    (fun (_, ct) ->
      List.fold_left
        (fun acc t ->
          if t > ct then Some (match acc with Some a -> min a t | None -> t)
          else acc)
        None outs
      |> Option.map (fun t -> t - ct))
    r.Engine.crash_times

let setup ~seed ~out_dir:_ =
  let w =
    Span.with_ "apps.build" (fun () ->
        Ft_harness.Figure8.workload ~scale Ft_harness.Figure8.Treadmarks)
  in
  let horizon_ns = 2_000_000_000 in
  let runs =
    List.concat_map
      (fun protocol ->
        List.init runs (fun k ->
            let s = Pass.subseed ~seed ~salt:0x7ec0 k in
            let kills =
              List.concat_map
                (fun pid ->
                  Ft_faults.Kill_plan.tenant ~pid ~crash_rate:kill_rate
                    ~horizon_ns ~seed:s pid)
                (List.init w.Ft_apps.Workload.nprocs Fun.id)
              |> List.sort compare
            in
            let kernel = Ft_apps.Workload.kernel ~seed:s w in
            let transport =
              Ft_os.Kernel.attach_net ~policy:weather ~seed:s kernel
            in
            {
              name =
                Printf.sprintf "%s/run%d" protocol.Ft_core.Protocol.spec_name k;
              protocol;
              kills;
              kernel;
              transport;
              ref_kernel = Ft_apps.Workload.kernel ~seed:s w;
            }))
      protocols
    |> Array.of_list
  in
  let nprocs = w.Ft_apps.Workload.nprocs in
  let programs = w.Ft_apps.Workload.programs in
  fun () ->
    let digest = Buffer.create 65536 in
    let failures = ref [] and all_mttrs = ref [] in
    (* per-run counters only: each run's traces are dropped once judged *)
    let per_run =
      List.mapi
        (fun i run ->
          Span.with_ ~op:i ~key:run.name "bench.op" @@ fun () ->
          let ref_t, reference =
            Span.with_ ~key:"reference" "engine.execute" (fun () ->
                Engine.execute
                  ~cfg:(config ~protocol:run.protocol ~kills:[] w)
                  ~kernel:run.ref_kernel ~programs ())
          in
          let t, r =
            Span.with_ ~key:"faulted" "engine.execute" (fun () ->
                Engine.execute
                  ~cfg:(config ~protocol:run.protocol ~kills:run.kills w)
                  ~kernel:run.kernel ~programs ())
          in
          Option.iter
            (fun f -> failures := f :: !failures)
            (Pass.judge ~name:run.name ~protocol:run.protocol ~reference
               ~reference_saves_work:(lazy (Pass.saves_work reference))
               r);
          all_mttrs := List.rev_append (mttrs r) !all_mttrs;
          let s = Ft_net.Transport.stats run.transport in
          Printf.bprintf digest "%s %s\n  ref %s\n  net %d %d %d %d %d %d %d\n"
            run.name (Pass.result_line r) (Pass.result_line reference)
            s.Ft_net.Transport.sends s.transmissions s.retransmits s.deliveries
            s.dup_frames s.dropped s.gave_up;
          [
            ("instr", r.Engine.wall_instructions);
            ("ref_instr", reference.Engine.wall_instructions);
            ("commits", Array.fold_left ( + ) 0 r.Engine.commit_counts);
            ( "words",
              Pass.rio_words (Engine.checkpointer ref_t) ~nprocs
              + Pass.rio_words (Engine.checkpointer t) ~nprocs );
            ("crashes", r.Engine.crashes);
            ("restores", r.Engine.recoveries);
            ("orphans", r.Engine.orphan_rollbacks);
            ("aborted", r.Engine.aborted_rounds);
            ("syscalls", Pass.syscalls run.kernel + Pass.syscalls run.ref_kernel);
            ("det_hw", r.Engine.det_high_water);
            ("flushes", r.Engine.det_forced_flushes);
            ("sends", s.Ft_net.Transport.sends);
            ("transmissions", s.transmissions);
            ("retransmits", s.retransmits);
            ("gave_up", s.gave_up);
            ("deliveries", s.deliveries);
          ])
        (Array.to_list runs)
    in
    let total k = Pass.isum (List.assoc k) per_run in
    let f k = float_of_int (total k) in
    let instr = total "instr" and ref_instr = total "ref_instr" in
    let crashes = total "crashes" in
    let nm = List.length !all_mttrs in
    let sim =
      [
        ( "sim_mttr_ms",
          if nm = 0 then 0.
          else
            float_of_int (List.fold_left ( + ) 0 !all_mttrs) /. 1e6 /. float nm
        );
        ( "useful_instr_frac",
          Pass.ratio (float_of_int ref_instr) (float_of_int instr) );
      ]
    in
    List.iter (fun (k, v) -> Printf.bprintf digest "%s %.17g\n" k v) sim;
    let counts =
      [
        ("engine.runs", float_of_int (2 * Array.length runs));
        ("vm.instr", float_of_int (instr + ref_instr));
        ("vm.replay_instr", float_of_int (instr - ref_instr));
        ("ckpt.commits", f "commits");
        ("stablemem.words_written", f "words");
        ("recovery.crashes", float_of_int crashes);
        ("recovery.restores", f "restores");
        ("recovery.orphan_rollbacks", f "orphans");
        ("recovery.aborted_rounds", f "aborted");
        ("os.syscalls", f "syscalls");
        ( "os.det_high_water",
          float_of_int
            (List.fold_left (fun a c -> max a (List.assoc "det_hw" c)) 0 per_run)
        );
        ("os.det_forced_flushes", f "flushes");
        ("net.sends", f "sends");
        ("net.transmissions", f "transmissions");
        ("net.retransmits", f "retransmits");
        ("net.gave_up", f "gave_up");
        ("net.delivery_ratio", Pass.ratio (f "deliveries") (f "sends"));
        ("oracle.checks", float_of_int (Array.length runs));
      ]
    in
    {
      Pass.ops = Array.length runs;
      failures = List.rev !failures;
      sim_instr = instr + ref_instr;
      mc_nodes = 0;
      sim;
      counts;
      digest = Buffer.contents digest;
      host =
        (fun spans ->
          let t key =
            Span.total ~where:(fun s -> s.Span.key = key) "engine.execute" spans
          in
          [
            ( "engine.ns_per_instr",
              Pass.ratio
                (Span.total "engine.execute" spans *. 1e9)
                (float_of_int (instr + ref_instr)) );
            ( "recovery.ms_per_crash",
              Pass.ratio ((t "faulted" -. t "reference") *. 1e3)
                (float_of_int crashes) );
          ]);
    }

let workload = { Pass.name = "recovery"; setup }
