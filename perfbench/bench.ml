(* The benchmark's main program.  After one untimed warm-up, for
   [--seconds] it repeats one iteration of the chosen workload: set up
   (timed), then one pass (timed) that runs the simulator and checks
   every operation with the repo's oracles.  [setup_s] is the median
   set-up, [wall_s] the median pass, both scaled to a host running at
   the reference speed (see [Calib]); [peak_heap_mb] is the warm-up's;
   the per-layer numbers are medians over iterations.  It prints every metric
   by name with its unit and whether it is host time or simulated, and
   ends with one JSON line: the end-to-end metrics, or with [--trace 1]
   the per-layer metrics.

   A traced run alternates traced and untraced iterations: per-layer
   numbers come from the traced ones, and the difference of the two
   median passes is the tracing overhead.  Spans go to
   [.bench_out/spans-<workload>-<seed>.json] when the run ends; the
   sweeps' stores live beside them. *)

let workloads =
  [ Wl_fleet.workload; Wl_figure8.workload; Wl_recovery.workload; Wl_mc.workload ]

type kind = Host | Sim | Count

(* name, unit, kind — the order the report prints them in *)
let end_to_end =
  [ ("setup_s", "s", Host); ("wall_s", "s", Host); ("peak_heap_mb", "MB", Host) ]

let per_layer =
  [
    ("sim_minstr_per_s", "Minstr/s", Host);
    ("mc_states_per_s", "states/s", Host);
    ("sim_p50_ms", "ms", Sim);
    ("sim_p999_ms", "ms", Sim);
    ("sim_mttr_ms", "ms", Sim);
    ("useful_instr_frac", "frac", Sim);
    ("sim_overhead_pct", "%", Sim);
    ("apps.build_s", "s", Host);
    ("scheduler.create_s", "s", Host);
    ("scheduler.run_s", "s", Host);
    ("scheduler.steps", "count", Count);
    ("scheduler.ns_per_step", "ns", Host);
    ("engine.run_s", "s", Host);
    ("engine.runs", "count", Count);
    ("engine.ns_per_instr", "ns", Host);
    ("vm.instr", "count", Count);
    ("vm.replay_instr", "count", Count);
    ("vm.ns_per_instr_nocommit", "ns", Host);
    ("ckpt.commits", "count", Count);
    ("ckpt.us_per_commit", "us", Host);
    ("stablemem.words_written", "count", Count);
    ("recovery.crashes", "count", Count);
    ("recovery.restores", "count", Count);
    ("recovery.orphan_rollbacks", "count", Count);
    ("recovery.aborted_rounds", "count", Count);
    ("recovery.ms_per_crash", "ms", Host);
    ("os.syscalls", "count", Count);
    ("os.det_high_water", "count", Count);
    ("os.det_forced_flushes", "count", Count);
    ("net.sends", "count", Count);
    ("net.transmissions", "count", Count);
    ("net.retransmits", "count", Count);
    ("net.gave_up", "count", Count);
    ("net.delivery_ratio", "frac", Count);
    ("oracle.consistency_s", "s", Host);
    ("oracle.save_work_s", "s", Host);
    ("oracle.checks", "count", Count);
    ("mc.check_s", "s", Host);
    ("mc.nodes", "count", Count);
    ("mc.runs", "count", Count);
    ("mc.steps", "count", Count);
    ("mc.memo_hit_frac", "frac", Count);
    ("exp.sweep_s", "s", Host);
    ("exp.job_s", "s", Host);
    ("exp.overhead_s", "s", Host);
    ("exp.store_bytes", "bytes", Count);
    ("gc.minor_mwords", "Mwords", Count);
    ("gc.promoted_mwords", "Mwords", Count);
    ("gc.major_collections", "count", Count);
    ("apps.self_s", "s", Host);
    ("scheduler.self_s", "s", Host);
    ("engine.self_s", "s", Host);
    ("oracle.self_s", "s", Host);
    ("mc.self_s", "s", Host);
    ("exp.self_s", "s", Host);
    ("bench.self_s", "s", Host);
    ("trace.spans", "count", Count);
    ("trace.overhead_s", "s", Host);
  ]

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

type iteration = {
  traced : bool;
  setup_s : float list;  (** scaled to the reference speed *)
  wall_s : float;  (** scaled to the reference speed *)
  host_s : float;  (** the pass as the host's clock read it *)
  speed : float;  (** the host's mean speed during the pass *)
  pass : Pass.t;
  spans : Span.t list;
  gc : (string * float) list;
  top_heap_words : int;  (** the process's major-heap high-water so far *)
}

(* Host-time per-layer metrics read from one traced iteration's spans. *)
let span_metrics spans =
  let total = Span.total in
  let sweeps =
    List.filter_map
      (fun s -> if s.Span.name = "exp.run_sweep" then Some s.Span.id else None)
      spans
  in
  let job_s =
    Pass.fsum Span.duration
      (List.filter (fun s -> List.mem s.Span.parent sweeps) spans)
  in
  let self = Span.self_by_layer spans in
  let self_of l = Option.value ~default:0. (Hashtbl.find_opt self l) in
  [
    ("apps.build_s", total "apps.build" spans);
    ("scheduler.create_s", total "scheduler.create" spans);
    ("scheduler.run_s", total "scheduler.run" spans);
    ("engine.run_s", total "engine.execute" spans);
    ("oracle.consistency_s", total "oracle.consistency" spans);
    ("oracle.save_work_s", total "oracle.save_work" spans);
    ("mc.check_s", total "mc.check" spans);
    ("exp.sweep_s", total "exp.run_sweep" spans);
    ("exp.job_s", job_s);
    ("exp.overhead_s", total "exp.run_sweep" spans -. job_s);
    ("trace.spans", float_of_int (List.length spans));
  ]
  @ List.map
      (fun l -> (l ^ ".self_s", self_of l))
      [ "apps"; "scheduler"; "engine"; "oracle"; "mc"; "exp"; "bench" ]

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_mwords", (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6);
    ("gc.promoted_mwords", (b.Gc.promoted_words -. a.Gc.promoted_words) /. 1e6);
    ( "gc.major_collections",
      float_of_int (b.Gc.major_collections - a.Gc.major_collections) );
  ]

(* A set-up cheaper than [cheap_setup_s] is repeated, up to
   [setup_repeats] times, so its median rests on more than one sample
   and the repeats last long enough for the speed probes to sample
   them; the pass runs on the last one. *)
let cheap_setup_s = 0.05
let setup_repeats = 500

let iterate (w : Pass.workload) ~seed ~out_dir ~traced ~probed =
  (* every iteration starts from a compacted heap, not from the last
     one's garbage *)
  Gc.compact ();
  Span.on := traced;
  let gc0 = Gc.quick_stat () in
  let (pass, setup_s, pass_s, setup_speed, iteration_speed, pass_speed), spans =
    Span.capture (fun () ->
        if probed then Calib.start ();
        Fun.protect ~finally:Calib.stop (fun () ->
            let first = Calib.mark () in
            let rec setups acc =
              let m0 = Calib.mark () in
              let run =
                Span.with_ "bench.setup" (fun () -> w.setup ~seed ~out_dir)
              in
              let acc = fst (Calib.between m0 (Calib.mark ())) :: acc in
              if
                probed
                && Pass.fsum Fun.id acc < cheap_setup_s
                && List.length acc < setup_repeats
              then setups acc
              else (run, acc)
            in
            let run, setup_s = setups [] in
            let m1 = Calib.mark () in
            let pass = Span.with_ "bench.pass" run in
            let m2 = Calib.mark () in
            let pass_s, pass_speed = Calib.between m1 m2 in
            let speed m = snd (Calib.between first m) in
            (pass, setup_s, pass_s, speed m1, speed m2, pass_speed)))
  in
  Span.on := false;
  let gc1 = Gc.quick_stat () in
  (* set-ups too short for a probe take the whole iteration's speed *)
  let iteration_speed = Option.value iteration_speed ~default:1. in
  let setup_speed = Option.value setup_speed ~default:iteration_speed in
  let pass_speed = Option.value pass_speed ~default:iteration_speed in
  {
    traced;
    setup_s = List.map (fun s -> s *. setup_speed) setup_s;
    wall_s = pass_s *. pass_speed;
    host_s = pass_s;
    speed = pass_speed;
    pass;
    spans;
    gc = gc_delta gc0 gc1;
    top_heap_words = gc1.Gc.top_heap_words;
  }

(* A warm-up iteration, then timed ones until [seconds] are used.  The
   warm-up is checked like the rest but not timed, and runs without
   probes: its heap high-water is the one reported, and the probes'
   interruptions would shift when the collector runs. *)
let run (w : Pass.workload) ~seed ~seconds ~trace ~out_dir =
  let start = Span.now () in
  let warm_up = iterate w ~seed ~out_dir ~traced:false ~probed:false in
  let min_iterations = if trace then 4 else 3 in
  let rec loop i acc =
    let it = iterate w ~seed ~out_dir ~traced:(trace && i mod 2 = 0) ~probed:true in
    let acc = it :: acc in
    let elapsed = Span.now () -. start in
    if
      i + 1 < min_iterations
      || (elapsed +. (elapsed /. float_of_int (i + 2)) <= seconds
         && i < 500)
    then loop (i + 1) acc
    else (warm_up, List.rev acc, elapsed)
  in
  loop 0 []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fleet | figure8 | recovery | mc");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to keep iterating");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : Pass.workload) -> w.Pass.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 and seed = !seed in
  let root = ".bench_out" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let out_dir = Filename.concat root (w.Pass.name ^ "-store") in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let warm_up, timed_its, elapsed = run w ~seed ~seconds:!seconds ~trace ~out_dir in
  let its = warm_up :: timed_its in
  (* the warm-up's high-water: a fresh process running the workload
     once, so later iterations' heap reuse does not blur it *)
  let peak_mb =
    float_of_int (warm_up.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let med f l = median (List.map f l) in
  let timed = List.filter (fun it -> not it.traced) timed_its in
  let traced = List.filter (fun it -> it.traced) timed_its in
  let p = (List.hd its).pass in
  let digests = List.sort_uniq compare (List.map (fun it -> it.pass.digest) its) in
  let wall_s = med (fun it -> it.wall_s) timed in
  let values =
    [
      ("setup_s", median (List.concat_map (fun it -> it.setup_s) timed));
      ("wall_s", wall_s);
      ("peak_heap_mb", peak_mb);
      ( "sim_minstr_per_s",
        Pass.ratio (float_of_int p.sim_instr /. 1e6) wall_s );
      ("mc_states_per_s", Pass.ratio (float_of_int p.mc_nodes) wall_s);
    ]
    @ p.sim @ p.counts
    @ (if traced = [] then []
       else
         let keys = List.map fst (span_metrics [] @ p.host [] @ (List.hd traced).gc) in
         List.map
           (fun k ->
             ( k,
               med
                 (fun it ->
                   List.assoc k (span_metrics it.spans @ it.pass.host it.spans @ it.gc))
                 traced ))
           keys
         @ [ ("trace.overhead_s", med (fun it -> it.wall_s) traced -. wall_s) ])
  in
  let value k = Option.value ~default:0. (List.assoc_opt k values) in
  let failures = List.concat_map (fun it -> it.pass.failures) its in
  let attempted = Pass.isum (fun it -> it.pass.ops) its in
  Printf.printf
    "workload %s seed %d: a warm-up and %d iterations (%d traced), %.1f s\n"
    w.Pass.name seed (List.length timed_its) (List.length traced) elapsed;
  Printf.printf
    "  pass host seconds / host speed (t = traced; median %.3f s, %.3f): %s\n"
    (med (fun it -> it.host_s) timed)
    (med (fun it -> it.speed) timed)
    (String.concat " "
       (List.map
          (fun it ->
            Printf.sprintf "%.3f/%.3f%s" it.host_s it.speed
              (if it.traced then "t" else ""))
          timed_its));
  let kind_name = function Host -> "host" | Sim -> "sim" | Count -> "count" in
  List.iter
    (fun (k, unit, kind) ->
      if List.mem_assoc k values then
        Printf.printf "  %-26s %16.6f %-9s %s\n" k (value k) unit (kind_name kind))
    (end_to_end @ per_layer);
  Printf.printf "  sim_digest %s\n" (Digest.to_hex (Digest.string p.digest));
  Printf.printf "  ops %d ops_failed %d\n" attempted (List.length failures);
  List.iteri
    (fun i f -> if i < 10 then Printf.printf "  FAILED %s\n" f)
    failures;
  if List.length digests > 1 then
    print_endline "  FAILED simulated statistics differ between iterations";
  if trace then begin
    let path =
      Filename.concat root (Printf.sprintf "spans-%s-%d.json" w.Pass.name seed)
    in
    Span.write path;
    Printf.printf "  spans written to %s\n" path
  end;
  let metrics = if trace then per_layer else end_to_end in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = [] && List.length digests = 1)
    attempted (List.length failures)
    (String.concat ", "
       (List.map
          (fun (k, unit, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k (value k) unit)
          metrics))
