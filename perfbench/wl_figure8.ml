(* figure8: the paper's failure-free panel at scale 0.1 — every app over
   its protocol space on Rio memory and DC-disk, plus each app's
   NO-COMMIT baseline — swept through [Exp.run_sweep] into a fresh store,
   as [ft figure8 --out] does.  Each job stores exactly the value
   Figure8's own job stores (under the same key), so [Figure8.of_records]
   and [Figure8.render] rebuild the published tables (at scale 0.25 and
   seed 42 they are byte-identical to test/golden/figure8_scale025.golden).
   Scale 0.1 keeps a pass near 1.5 s, so a run holds enough passes for a
   steady median.  The job also
   judges its run and keeps the counters the per-layer metrics need.  A
   cell fails if its run does not complete, if its output is inconsistent
   with the baseline's, or if Save-work-visible holds on the baseline but
   not on the cell (it never holds on a NO-COMMIT baseline, so that check
   is evaluated once per app). *)

module F = Ft_harness.Figure8
module Engine = Ft_runtime.Engine

let scale = 0.1

type cell = {
  app : F.app;
  protocol : Ft_core.Protocol.spec;
  medium : Ft_runtime.Checkpointer.medium;
  w : Ft_apps.Workload.t;
  kernel : Ft_os.Kernel.t;
  key : string;
}

type summary = {
  line : string;  (** every simulated statistic of the run *)
  instr : int;
  commits : int;
  words : int;  (** Rio words written *)
  calls : int;  (** syscalls served *)
  det_hw : int;
  flushes : int;
  verdict : string option;
}

let is_baseline c = c.protocol == Ft_core.Protocols.no_commit

(* xpilot drops frames when commits are slow, so its output legitimately
   differs from the NO-COMMIT baseline's: its cells are judged by
   completion alone.  Every other app's output must match the
   baseline's. *)
let judge c ~reference ~reference_saves_work (r : Engine.result) =
  if c.app <> F.Xpilot then
    Pass.judge ~name:c.key ~protocol:c.protocol ~reference ~reference_saves_work r
  else if r.Engine.outcome = Engine.Completed then None
  else Some (c.key ^ ": outcome " ^ Pass.outcome_name r.Engine.outcome)

let setup ~seed ~out_dir =
  let ws =
    Span.with_ "apps.build" (fun () ->
        List.map (fun app -> (app, F.workload ~scale app)) F.all_apps)
  in
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  let cells =
    List.concat_map
      (fun (app, w) ->
        let specs =
          (Ft_core.Protocols.no_commit, mem)
          :: List.concat_map
               (fun p -> [ (p, mem); (p, disk) ])
               (F.protocols_for app)
        in
        let jobs = F.jobs ~scale ~seed app in
        assert (List.length jobs = List.length specs);
        List.map2
          (fun (protocol, medium) (j : Ft_exp.Job.t) ->
            let kernel = Ft_apps.Workload.kernel ~seed w in
            { app; protocol; medium; w; kernel; key = j.Ft_exp.Job.key })
          specs jobs)
      ws
    |> Array.of_list
  in
  fun () ->
    (* per-cell counters only: a cell's trace is dropped once judged
       against its app's baseline, which runs first *)
    let done_ = Array.make (Array.length cells) None in
    let baselines = Hashtbl.create 4 in
    let run i c () =
      Span.with_ ~op:i ~key:c.key "exp.job" @@ fun () ->
      let cfg =
        Ft_apps.Workload.engine_config c.w
          { Engine.default_config with protocol = c.protocol; medium = c.medium }
      in
      let t, r =
        Span.with_ "engine.execute" (fun () ->
            Engine.execute ~cfg ~kernel:c.kernel
              ~programs:c.w.Ft_apps.Workload.programs ())
      in
      let verdict =
        if is_baseline c then begin
          Hashtbl.replace baselines c.app (r, lazy (Pass.saves_work r));
          None
        end
        else
          let reference, reference_saves_work = Hashtbl.find baselines c.app in
          judge c ~reference ~reference_saves_work r
      in
      done_.(i) <-
        Some
          {
            line = Pass.result_line r;
            instr = r.Engine.wall_instructions;
            commits = Array.fold_left ( + ) 0 r.Engine.commit_counts;
            words =
              Pass.rio_words (Engine.checkpointer t)
                ~nprocs:c.w.Ft_apps.Workload.nprocs;
            calls = Pass.syscalls c.kernel;
            det_hw = r.Engine.det_high_water;
            flushes = r.Engine.det_forced_flushes;
            verdict;
          };
      Ft_exp.Jstore.Obj
        [
          ("m", Ft_exp.Metrics.to_json (Ft_exp.Metrics.of_result r));
          ( "fps",
            Ft_exp.Jstore.Float
              (if c.app = F.Xpilot then Ft_apps.Xpilot.fps r else 0.) );
        ]
    in
    let jobs =
      List.mapi (fun i c -> Ft_exp.Job.make ~key:c.key ~seed (run i c))
        (Array.to_list cells)
    in
    let sweep =
      Span.with_ "exp.run_sweep" (fun () ->
          Ft_exp.Exp.run_sweep ~workers:1 ~fresh:true ~quiet:true ~out_dir
            ~name:"figure8" jobs)
    in
    let store_bytes =
      (Unix.stat (Filename.concat out_dir "figure8.jsonl")).Unix.st_size
    in
    let lookup = Ft_exp.Exp.lookup sweep in
    let figures =
      List.map (fun app -> F.of_records ~scale ~seed app lookup) F.all_apps
    in
    let digest = Buffer.create 65536 in
    List.iter (fun f -> Buffer.add_string digest (F.render f)) figures;
    let all =
      List.mapi
        (fun i c ->
          match done_.(i) with
          | Some d -> (i, c, d)
          | None -> failwith ("figure8: no result for " ^ c.key))
        (Array.to_list cells)
    in
    List.iter (fun (_, c, d) -> Printf.bprintf digest "%s %s\n" c.key d.line) all;
    let base, committing = List.partition (fun (_, c, _) -> is_baseline c) all in
    let failures =
      (if sweep.Ft_exp.Exp.failed > 0 then
         [ Printf.sprintf "%d figure8 jobs failed" sweep.Ft_exp.Exp.failed ]
       else [])
      @ List.filter_map (fun (_, _, d) -> d.verdict) committing
    in
    let sum f l = Pass.isum (fun (_, _, d) -> f d) l in
    let overheads =
      List.concat_map
        (fun (f : F.app_result) ->
          List.concat_map
            (fun (c : F.cell) -> [ c.F.dc_overhead; c.F.dcdisk_overhead ])
            f.F.cells)
        figures
    in
    let sim =
      [
        ( "sim_overhead_pct",
          Pass.fsum Fun.id overheads /. float_of_int (List.length overheads) );
      ]
    in
    List.iter (fun (k, v) -> Printf.bprintf digest "%s %.17g\n" k v) sim;
    let f = float_of_int in
    let counts =
      [
        ("engine.runs", f (List.length all));
        ("vm.instr", f (sum (fun d -> d.instr) all));
        ("ckpt.commits", f (sum (fun d -> d.commits) all));
        ("stablemem.words_written", f (sum (fun d -> d.words) all));
        ("os.syscalls", f (sum (fun d -> d.calls) all));
        ( "os.det_high_water",
          f (List.fold_left (fun a (_, _, d) -> max a d.det_hw) 0 all) );
        ("os.det_forced_flushes", f (sum (fun d -> d.flushes) all));
        ("oracle.checks", f (List.length committing));
        ("exp.store_bytes", f store_bytes);
      ]
    in
    let base_of = List.map (fun (i, c, _) -> (c.app, i)) base in
    {
      Pass.ops = List.length committing;
      failures;
      sim_instr = sum (fun d -> d.instr) all;
      mc_nodes = 0;
      sim;
      counts;
      digest = Buffer.contents digest;
      host =
        (fun spans ->
          let time i =
            Span.total ~where:(fun s -> s.Span.op = i) "engine.execute" spans
          in
          let cells_time l = Pass.fsum (fun (i, _, _) -> time i) l in
          (* a cell's commit cost: its host time over its app's NO-COMMIT
             baseline, per commit *)
          let extra =
            Pass.fsum
              (fun (i, c, _) -> time i -. time (List.assoc c.app base_of))
              committing
          in
          [
            ( "engine.ns_per_instr",
              Pass.ratio (cells_time all *. 1e9) (f (sum (fun d -> d.instr) all)) );
            ( "vm.ns_per_instr_nocommit",
              Pass.ratio (cells_time base *. 1e9) (f (sum (fun d -> d.instr) base)) );
            ( "ckpt.us_per_commit",
              Pass.ratio (extra *. 1e6) (f (sum (fun d -> d.commits) committing)) );
          ]);
    }

let workload = { Pass.name = "figure8"; setup }
