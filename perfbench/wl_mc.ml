(* mc: the exhaustive check of the default 3-process x 3-event program,
   honest, under all nine protocols, through [Checker.jobs] and
   [Exp.run_sweep] into a fresh store.  A protocol's check fails if any
   of its jobs has no verdict or the checker reports a violation.  The
   workload has no random input: the seed is recorded but unused.
   (3 x 4 is 30k nodes and 7 s a pass, too long for a run; 2 x 6, the
   CLI's default, is 0.4 s and never reaches a third process.) *)

module C = Ft_mc.Checker

let nprocs = 3
let depth = 3
let protocols = Ft_core.Protocols.figure8_extended

let setup ~seed:_ ~out_dir =
  let program = Ft_mc.Model.default_program ~nprocs ~depth in
  let jobs =
    List.mapi
      (fun i spec ->
        ( spec,
          List.map
            (fun (j : Ft_exp.Job.t) ->
              {
                j with
                Ft_exp.Job.run =
                  (fun () ->
                    Span.with_ ~op:i ~key:j.Ft_exp.Job.key "mc.check" j.run);
              })
            (C.jobs ~specs:[ (spec, Ft_mc.Model.Honest) ] ~program ()) ))
      protocols
  in
  fun () ->
    let sweep =
      Span.with_ "exp.run_sweep" (fun () ->
          Ft_exp.Exp.run_sweep ~workers:1 ~fresh:true ~quiet:true ~out_dir
            ~name:"mc" (List.concat_map snd jobs))
    in
    let store_bytes =
      (Unix.stat (Filename.concat out_dir "mc.jsonl")).Unix.st_size
    in
    let lookup = Ft_exp.Exp.lookup sweep in
    let failures = ref [] in
    let digest = Buffer.create 4096 in
    Printf.bprintf digest "Model checker: %d procs x %d events, program %s\n"
      nprocs depth (Ft_mc.Model.program_digest program);
    let stats =
      List.map
        (fun ((spec : Ft_core.Protocol.spec), js) ->
          let name = spec.Ft_core.Protocol.spec_name in
          let s =
            List.fold_left
              (fun acc (j : Ft_exp.Job.t) ->
                match Option.bind (lookup j.Ft_exp.Job.key) C.stats_of_value with
                | Some s -> C.add_stats acc s
                | None ->
                    failures := (name ^ ": job without a verdict: " ^ j.key) :: !failures;
                    acc)
              C.zero_stats js
          in
          let nviol = List.length s.C.violations in
          if nviol > 0 then
            failures :=
              Printf.sprintf "%s: %d violations on an honest protocol" name nviol
              :: !failures;
          Printf.bprintf digest "%-12s %8d %8d %8d %10d %6d\n" name s.C.nodes
            s.C.runs s.C.memo_hits s.C.steps nviol;
          s)
        jobs
    in
    let total = List.fold_left C.add_stats C.zero_stats stats in
    let f = float_of_int in
    {
      Pass.ops = List.length protocols;
      failures = List.rev !failures;
      sim_instr = 0;
      mc_nodes = total.C.nodes;
      sim = [];
      counts =
        [
          ("mc.nodes", f total.C.nodes);
          ("mc.runs", f total.C.runs);
          ("mc.steps", f total.C.steps);
          ("mc.memo_hit_frac", Pass.ratio (f total.C.memo_hits) (f total.C.nodes));
          ("exp.store_bytes", f store_bytes);
        ];
      digest = Buffer.contents digest;
      host = (fun _ -> []);
    }

let workload = { Pass.name = "mc"; setup }
