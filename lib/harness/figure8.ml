(** Figure 8: performance of the seven protocols for the four
    applications, on Discount Checking (reliable memory) and DC-disk.

    For each protocol we report the number of checkpoints in the complete
    run and the runtime overhead relative to an unrecoverable version of
    the application (the NO-COMMIT baseline costs nothing).  For xpilot,
    following the paper, we report checkpoints per second and sustainable
    frame rate instead. *)

type app = Nvi | Magic | Xpilot | Treadmarks

let app_name = function
  | Nvi -> "nvi"
  | Magic -> "magic"
  | Xpilot -> "xpilot"
  | Treadmarks -> "treadmarks"

let app_of_name s =
  match String.lowercase_ascii s with
  | "nvi" -> Some Nvi
  | "magic" -> Some Magic
  | "xpilot" -> Some Xpilot
  | "treadmarks" | "barnes-hut" -> Some Treadmarks
  | _ -> None

let all_apps = [ Nvi; Magic; Xpilot; Treadmarks ]

(* Scale in (0, 1]: shrinks the workloads for quick runs and benches. *)
let workload ?(scale = 1.0) app =
  let s x = max 1 (int_of_float (float_of_int x *. scale)) in
  match app with
  | Nvi ->
      Ft_apps.Nvi.workload
        ~params:
          { Ft_apps.Nvi.default_params with
            Ft_apps.Nvi.keystrokes = s Ft_apps.Nvi.default_params.keystrokes }
        ()
  | Magic ->
      Ft_apps.Magic.workload
        ~params:
          { Ft_apps.Magic.default_params with
            Ft_apps.Magic.commands = s Ft_apps.Magic.default_params.commands }
        ()
  | Xpilot ->
      Ft_apps.Xpilot.workload
        ~params:
          { Ft_apps.Xpilot.frames = s Ft_apps.Xpilot.default_params.frames }
        ()
  | Treadmarks ->
      Ft_apps.Treadmarks.workload
        ~params:
          { Ft_apps.Treadmarks.default_params with
            Ft_apps.Treadmarks.iters =
              s Ft_apps.Treadmarks.default_params.iters }
        ()

(* The protocols each application's protocol space shows in Figure 8:
   2PC variants only make sense for the distributed applications, and
   the message-logging pair (CAUSAL-LOG, OPTIMISTIC) joins them there
   too. *)
let protocols_for = function
  | Nvi | Magic ->
      Ft_core.Protocols.
        [ cand; cand_log; cpvs; cbndvs; cbndvs_log ]
  | Xpilot | Treadmarks -> Ft_core.Protocols.figure8_extended

type cell = {
  protocol : string;
  checkpoints : int;          (* total over the run, all processes *)
  ckps_per_sec : float;       (* largest per-process rate (xpilot metric) *)
  dc_overhead : float;        (* percent *)
  dcdisk_overhead : float;    (* percent *)
  dc_fps : float;
  dcdisk_fps : float;
  nd_events : int;
  logged_events : int;
}

type app_result = {
  app : app;
  baseline_ns : int;
  cells : cell list;
}

let run_once ~(w : Ft_apps.Workload.t) ~protocol ~medium ~seed =
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with protocol; medium }
  in
  let kernel = Ft_apps.Workload.kernel ~seed w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  r

let overhead ~baseline t =
  if baseline <= 0 then 0.
  else 100. *. (float_of_int t -. float_of_int baseline) /. float_of_int baseline

(* --- jobs ------------------------------------------------------------------ *)

(* Each Figure-8 measurement is one engine run: (app x protocol x
   medium) plus one unrecoverable NO-COMMIT baseline per app.  A job's
   value records the engine counters plus the xpilot frame rate; the
   cells are assembled from those records, so serial, parallel and warm
   store runs render identically. *)

let medium_name = function
  | Ft_runtime.Checkpointer.Reliable_memory -> "mem"
  | Ft_runtime.Checkpointer.Disk _ -> "disk"

let job_key ~scale ~seed ~app ~label ~medium =
  Printf.sprintf "fig8/%s/%s/%s/scale=%g" (app_name app) label
    (medium_name medium) scale
  |> fun k -> Printf.sprintf "%s/seed=%d" k seed

let probe_value ~app r =
  Ft_exp.Jstore.Obj
    [
      ("m", Ft_exp.Metrics.to_json (Ft_exp.Metrics.of_result r));
      ( "fps",
        Ft_exp.Jstore.Float (if app = Xpilot then Ft_apps.Xpilot.fps r else 0.)
      );
    ]

let job ~scale ~seed ~app ~label ~protocol ~medium =
  Ft_exp.Job.make
    ~key:(job_key ~scale ~seed ~app ~label ~medium)
    ~seed
    (fun () ->
      (* build the workload inside the thunk: nothing is shared across
         worker domains *)
      let w = workload ~scale app in
      probe_value ~app (run_once ~w ~protocol ~medium ~seed))

let jobs ?(scale = 1.0) ?(seed = 42) app =
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  job ~scale ~seed ~app ~label:"baseline"
    ~protocol:Ft_core.Protocols.no_commit ~medium:mem
  :: List.concat_map
       (fun proto ->
         let label = proto.Ft_core.Protocol.spec_name in
         [
           job ~scale ~seed ~app ~label ~protocol:proto ~medium:mem;
           job ~scale ~seed ~app ~label ~protocol:proto ~medium:disk;
         ])
       (protocols_for app)

let of_records ?(scale = 1.0) ?(seed = 42) app lookup =
  let probe label medium =
    match lookup (job_key ~scale ~seed ~app ~label ~medium) with
    | Some v ->
        ( Ft_exp.Metrics.of_json
            (Option.value ~default:Ft_exp.Jstore.Null
               (Ft_exp.Jstore.member "m" v)),
          Ft_exp.Jstore.get_float "fps" v )
    | None -> (Ft_exp.Metrics.zero, 0.)
  in
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  let base, _ = probe "baseline" mem in
  let baseline_ns = base.Ft_exp.Metrics.sim_time_ns in
  let cells =
    List.map
      (fun proto ->
        let label = proto.Ft_core.Protocol.spec_name in
        let dc, dc_fps = probe label mem in
        let dk, dcdisk_fps = probe label disk in
        {
          protocol = label;
          checkpoints = dc.Ft_exp.Metrics.commits;
          ckps_per_sec = Ft_exp.Metrics.commit_rate dc;
          dc_overhead =
            overhead ~baseline:baseline_ns dc.Ft_exp.Metrics.sim_time_ns;
          dcdisk_overhead =
            overhead ~baseline:baseline_ns dk.Ft_exp.Metrics.sim_time_ns;
          dc_fps;
          dcdisk_fps;
          nd_events = dc.Ft_exp.Metrics.nd_events;
          logged_events = dc.Ft_exp.Metrics.logged_events;
        })
      (protocols_for app)
  in
  { app; baseline_ns; cells }

let render (r : app_result) =
  let headers, rows =
    if r.app = Xpilot then
      ( [ "protocol"; "ckps"; "DC fps"; "DC-disk fps"; "nd"; "logged" ],
        List.map
          (fun c ->
            [
              c.protocol;
              Printf.sprintf "%.0f/s" c.ckps_per_sec;
              Printf.sprintf "%.1f" c.dc_fps;
              Printf.sprintf "%.1f" c.dcdisk_fps;
              string_of_int c.nd_events;
              string_of_int c.logged_events;
            ])
          r.cells )
    else
      ( [ "protocol"; "checkpoints"; "DC ovh"; "DC-disk ovh"; "nd"; "logged" ],
        List.map
          (fun c ->
            [
              c.protocol;
              string_of_int c.checkpoints;
              Report.pct c.dc_overhead;
              Report.pct c.dcdisk_overhead;
              string_of_int c.nd_events;
              string_of_int c.logged_events;
            ])
          r.cells )
  in
  Report.section
    (Printf.sprintf "Figure 8%s: %s protocol space"
       (match r.app with
       | Nvi -> "a" | Magic -> "b" | Xpilot -> "c" | Treadmarks -> "d")
       (app_name r.app))
  ^ Report.table ~headers ~rows
