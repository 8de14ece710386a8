(** Netstorm: the failure-transparency claims under an unreliable
    network.

    The paper's protocols assume messages arrive; {!Ft_net} withdraws
    that assumption.  Each netstorm job runs one (application, protocol,
    storm point) cell twice inside the thunk: once on the reliable
    in-kernel path (the reference) and once with an {!Ft_net.Transport}
    interposed — losing, duplicating, reordering and optionally
    partitioning the wire mid-run.  The transport's retransmission is
    supposed to make the storm invisible; the oracles check that it
    actually was:

    - {b wedged}: the stressed run must still complete — never hang in
      [Block_recv] or degrade to [Net_unreachable].
    - {b consistency}: for value-deterministic applications (nvi,
      TreadMarks) the stressed visible output must be consistent with
      the reference run's, modulo duplicates (paper §2.3).  xpilot's
      visible values are timing-dependent (its physics reads the frame
      clock), so its oracle is count-based: every client renders exactly
      the reference number of frames, with the same frame indices.
    - {b Save-work}: failure-free runs of some (app, protocol) cells
      violate Save-work even on the reliable path (e.g. xpilot under
      CPV-2PC: the server's message-order ND outruns the global rounds).
      The storm oracle is therefore relative — where the reference run
      upholds the visible constraint, the stressed run must too — and
      checks the visible half only: orphan violations are inert without
      a crash, and their commit-event targets make the full check
      quadratic in the trace.

    The sweep fans out over {!Ft_exp.Exp} jobs — parallel under [-j],
    resumable from a warm store — and the CLI exits non-zero on any
    violation, wedged run or missing job, like [ft torture]. *)

module Engine = Ft_runtime.Engine
module Consistency = Ft_core.Consistency
module Save_work = Ft_core.Save_work

type point = {
  label : string;
  loss : float;       (* per-frame drop probability *)
  dup : float;        (* per-frame duplication probability *)
  reorder : float;    (* per-frame extra-delay (reorder) probability *)
  partition : bool;   (* one mid-run 0<->1 partition, healed *)
}

let point_tag p =
  Printf.sprintf "l%g-d%g-r%g%s" p.loss p.dup p.reorder
    (if p.partition then "-part" else "")

let custom_point ?(loss = 0.) ?(dup = 0.) ?(reorder = 0.)
    ?(partition = false) () =
  let p = { label = ""; loss; dup; reorder; partition } in
  { p with label = point_tag p }

(* The default campaign ladder: a sanity point (transport attached but
   perfect), two intermediate weather bands, and the acceptance storm —
   20% loss, 5% duplication, 10% reorder, plus a mid-run partition that
   heals. *)
let default_points =
  [
    { label = "calm"; loss = 0.; dup = 0.; reorder = 0.; partition = false };
    { label = "breeze"; loss = 0.05; dup = 0.01; reorder = 0.02;
      partition = false };
    { label = "gale"; loss = 0.10; dup = 0.02; reorder = 0.05;
      partition = false };
    { label = "storm"; loss = 0.20; dup = 0.05; reorder = 0.10;
      partition = true };
  ]

(* nvi exercises the no-traffic path; xpilot and TreadMarks are the
   distributed applications (magic's cell would duplicate nvi's). *)
let default_apps = [ Figure8.Nvi; Figure8.Xpilot; Figure8.Treadmarks ]

(* The partition is placed mid-run as a fraction of the reference run's
   simulated time, and capped so a frame transmitted just before the
   cut can still ride it out on the retransmission budget (~590 ms of
   cumulative backoff at the default RTO ladder). *)
let partition_cap_ns = 300_000_000

let partition_window ~baseline_ns =
  let from_ns = baseline_ns * 2 / 5 in
  let dur = min (baseline_ns / 5) partition_cap_ns in
  (from_ns, from_ns + max 1 dur)

let run_once ~(w : Ft_apps.Workload.t) ~protocol ~seed ~policy =
  let cfg =
    Ft_apps.Workload.engine_config w
      { Engine.default_config with protocol }
  in
  let kernel = Ft_apps.Workload.kernel ~seed w in
  let tr =
    Option.map (fun policy -> Ft_os.Kernel.attach_net ~policy ~seed kernel)
      policy
  in
  let t, r =
    Engine.execute ~cfg ~kernel ~programs:w.Ft_apps.Workload.programs ()
  in
  ignore t;
  (r, tr)

let outcome_name = function
  | Engine.Completed -> "completed"
  | Engine.Deadline -> "deadline"
  | Engine.Recovery_failed -> "recovery-failed"
  | Engine.Deadlocked -> "deadlocked"
  | Engine.Instruction_budget -> "instruction-budget"
  | Engine.Net_unreachable -> "net-unreachable"

(* xpilot's count-based oracle: same per-process visible counts as the
   reference, and the same multiset of frame indices (the visible value
   is [frame * 100_000 + state]). *)
let frame_histogram visibles =
  List.sort compare (List.rev_map (fun v -> v / 100_000) visibles)

let check_visible ~app ~(reference : Engine.result) (r : Engine.result) =
  match (app : Figure8.app) with
  | Figure8.Xpilot ->
      if r.Engine.visible_counts <> reference.Engine.visible_counts then
        Error
          (Printf.sprintf "frame counts [%s] != reference [%s]"
             (String.concat ";"
                (Array.to_list (Array.map string_of_int r.Engine.visible_counts)))
             (String.concat ";"
                (Array.to_list
                   (Array.map string_of_int reference.Engine.visible_counts))))
      else if
        frame_histogram r.Engine.visible
        <> frame_histogram reference.Engine.visible
      then Error "frame-index multiset differs from reference"
      else Ok ()
  | _ -> (
      match
        Consistency.check ~reference:reference.Engine.visible
          ~observed:r.Engine.visible
      with
      | Consistency.Consistent -> Ok ()
      | v -> Error (Format.asprintf "%a" Consistency.pp_verdict v))

(* --- jobs ------------------------------------------------------------------ *)

let job_key ~scale ~seed ~app ~label point =
  Printf.sprintf "netstorm/%s/%s/%s/scale=%g/seed=%d" (Figure8.app_name app)
    label (point_tag point) scale seed

let stats_json (s : Ft_net.Transport.stats) ~sim_time_ns =
  let secs = float_of_int sim_time_ns /. 1e9 in
  Ft_exp.Jstore.Obj
    [
      ("sends", Ft_exp.Jstore.Int s.Ft_net.Transport.sends);
      ("transmissions", Ft_exp.Jstore.Int s.Ft_net.Transport.transmissions);
      ("retransmits", Ft_exp.Jstore.Int s.Ft_net.Transport.retransmits);
      ("deliveries", Ft_exp.Jstore.Int s.Ft_net.Transport.deliveries);
      ("dup_frames", Ft_exp.Jstore.Int s.Ft_net.Transport.dup_frames);
      ("dropped", Ft_exp.Jstore.Int s.Ft_net.Transport.dropped);
      ("cut", Ft_exp.Jstore.Int s.Ft_net.Transport.cut);
      ("gave_up", Ft_exp.Jstore.Int s.Ft_net.Transport.gave_up);
      ( "goodput",
        Ft_exp.Jstore.Float
          (if secs <= 0. then 0.
           else float_of_int s.Ft_net.Transport.deliveries /. secs) );
    ]

let job ~scale ~seed ~app ~protocol point =
  let label = protocol.Ft_core.Protocol.spec_name in
  Ft_exp.Job.make
    ~key:(job_key ~scale ~seed ~app ~label point)
    ~seed
    (fun () ->
      let w = Figure8.workload ~scale app in
      (* reference: same protocol, reliable in-kernel delivery *)
      let reference, _ = run_once ~w ~protocol ~seed ~policy:None in
      let baseline_ns = reference.Engine.sim_time_ns in
      let partitions =
        if point.partition then begin
          let from_ns, until_ns = partition_window ~baseline_ns in
          [ Ft_net.Policy.partition ~src:0 ~dst:1 ~from_ns ~until_ns () ]
        end
        else []
      in
      let policy =
        Ft_net.Policy.make ~drop:point.loss ~duplicate:point.dup
          ~reorder:point.reorder ~partitions ()
      in
      let r, tr = run_once ~w ~protocol ~seed ~policy:(Some policy) in
      let wedged = r.Engine.outcome <> Engine.Completed in
      let consistent, cons_msg =
        match check_visible ~app ~reference r with
        | Ok () -> (true, "")
        | Error msg -> (false, msg)
      in
      (* The visible half of Save-work only: orphan violations need a
         crash to matter (netstorm injects none), and their commit
         targets make the full check quadratic in the trace — tens of
         seconds per treadmarks cell against a 0.1 s engine run. *)
      let save_work_broken =
        Save_work.visible_violations reference.Engine.trace = []
        && Save_work.visible_violations r.Engine.trace <> []
      in
      let stats =
        match tr with
        | Some tr ->
            stats_json (Ft_net.Transport.stats tr)
              ~sim_time_ns:r.Engine.sim_time_ns
        | None -> Ft_exp.Jstore.Null
      in
      Ft_exp.Jstore.Obj
        [
          ("outcome", Ft_exp.Jstore.String (outcome_name r.Engine.outcome));
          ("wedged", Ft_exp.Jstore.Bool wedged);
          ("consistent", Ft_exp.Jstore.Bool consistent);
          ("cons_msg", Ft_exp.Jstore.String cons_msg);
          ("save_work_broken", Ft_exp.Jstore.Bool save_work_broken);
          ("aborted_rounds", Ft_exp.Jstore.Int r.Engine.aborted_rounds);
          ("baseline_ns", Ft_exp.Jstore.Int baseline_ns);
          ("sim_time_ns", Ft_exp.Jstore.Int r.Engine.sim_time_ns);
          ("net", stats);
        ])

let jobs ?(scale = 0.25) ?(seed = 42) ?(points = default_points)
    ?(apps = default_apps) () =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun protocol ->
          List.map (fun point -> job ~scale ~seed ~app ~protocol point) points)
        (Figure8.protocols_for app))
    apps

(* --- report ---------------------------------------------------------------- *)

type cell = {
  c_app : Figure8.app;
  c_protocol : string;
  c_point : point;
  c_outcome : string;
  c_wedged : bool;
  c_consistent : bool;
  c_cons_msg : string;
  c_save_work_broken : bool;
  c_aborted_rounds : int;
  c_goodput : float;       (* delivered payload messages per simulated second *)
  c_sends : int;
  c_transmissions : int;
  c_retransmits : int;
  c_gave_up : int;
  c_slowdown : float;      (* stressed sim time / reference sim time *)
}

type report = {
  cells : cell list;
  missing : string list;   (* job keys that died without a verdict *)
}

let violations r =
  List.filter
    (fun c -> c.c_wedged || not c.c_consistent || c.c_save_work_broken)
    r.cells

let clean r = violations r = [] && r.missing = []

let of_records ?(scale = 0.25) ?(seed = 42) ?(points = default_points)
    ?(apps = default_apps) lookup =
  let cells = ref [] and missing = ref [] in
  List.iter
    (fun app ->
      List.iter
        (fun protocol ->
          let label = protocol.Ft_core.Protocol.spec_name in
          List.iter
            (fun point ->
              let key = job_key ~scale ~seed ~app ~label point in
              match lookup key with
              | None -> missing := key :: !missing
              | Some v ->
                  let get_bool k =
                    match Ft_exp.Jstore.member k v with
                    | Some (Ft_exp.Jstore.Bool b) -> b
                    | _ -> false
                  in
                  let net k =
                    match Ft_exp.Jstore.member "net" v with
                    | Some (Ft_exp.Jstore.Obj _ as o) ->
                        Ft_exp.Jstore.get_int k o
                    | _ -> 0
                  in
                  let goodput =
                    match Ft_exp.Jstore.member "net" v with
                    | Some (Ft_exp.Jstore.Obj _ as o) ->
                        Ft_exp.Jstore.get_float "goodput" o
                    | _ -> 0.
                  in
                  let baseline = Ft_exp.Jstore.get_int "baseline_ns" v in
                  let sim = Ft_exp.Jstore.get_int "sim_time_ns" v in
                  cells :=
                    {
                      c_app = app;
                      c_protocol = label;
                      c_point = point;
                      c_outcome = Ft_exp.Jstore.get_str "outcome" v;
                      c_wedged = get_bool "wedged";
                      c_consistent = get_bool "consistent";
                      c_cons_msg = Ft_exp.Jstore.get_str "cons_msg" v;
                      c_save_work_broken = get_bool "save_work_broken";
                      c_aborted_rounds =
                        Ft_exp.Jstore.get_int "aborted_rounds" v;
                      c_goodput = goodput;
                      c_sends = net "sends";
                      c_transmissions = net "transmissions";
                      c_retransmits = net "retransmits";
                      c_gave_up = net "gave_up";
                      c_slowdown =
                        (if baseline <= 0 then 0.
                         else float_of_int sim /. float_of_int baseline);
                    }
                    :: !cells)
            points)
        (Figure8.protocols_for app))
    apps;
  { cells = List.rev !cells; missing = List.rev !missing }

let run ?workers ?out_dir ?(fresh = false) ?(quiet = false) ?(scale = 0.25)
    ?(seed = 42) ?(points = default_points) ?(apps = default_apps) () =
  let js = jobs ~scale ~seed ~points ~apps () in
  let lookup =
    Ft_exp.Exp.lookup
      (Ft_exp.Exp.run_sweep ?workers ?out_dir ~fresh ~quiet ~name:"netstorm" js)
  in
  of_records ~scale ~seed ~points ~apps lookup

(* One table per application: a row per storm point, protocols
   aggregated — the campaign is a pass/fail gate, so the interesting
   number is how many protocol cells survived, and the wire-level cost
   of surviving. *)
let render ?(points = default_points) ?(apps = default_apps) r =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Report.section "Netstorm: protocols on a lossy wire");
  List.iter
    (fun app ->
      let rows =
        List.map
          (fun point ->
            let cs =
              List.filter
                (fun c -> c.c_app = app && c.c_point.label = point.label)
                r.cells
            in
            let n = List.length cs in
            let ok =
              List.length
                (List.filter
                   (fun c ->
                     (not c.c_wedged) && c.c_consistent
                     && not c.c_save_work_broken)
                   cs)
            in
            let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
            let tx = sum (fun c -> c.c_transmissions) in
            let rtx = sum (fun c -> c.c_retransmits) in
            let aborted = sum (fun c -> c.c_aborted_rounds) in
            let mean f =
              if n = 0 then 0.
              else List.fold_left (fun a c -> a +. f c) 0. cs /. float_of_int n
            in
            [
              point.label;
              Printf.sprintf "%g/%g/%g%s" point.loss point.dup point.reorder
                (if point.partition then "+part" else "");
              Printf.sprintf "%d/%d" ok n;
              (if tx = 0 then "-"
               else
                 Printf.sprintf "%.0f%%"
                   (100. *. float_of_int rtx /. float_of_int tx));
              (let g = mean (fun c -> c.c_goodput) in
               if g <= 0. then "-" else Printf.sprintf "%.0f/s" g);
              Printf.sprintf "%.2fx" (mean (fun c -> c.c_slowdown));
              string_of_int aborted;
            ])
          points
      in
      Buffer.add_string b
        (Printf.sprintf "\n%s (%d protocols)\n" (Figure8.app_name app)
           (List.length (Figure8.protocols_for app)));
      Buffer.add_string b
        (Report.table
           ~headers:
             [ "point"; "loss/dup/reord"; "clean"; "rtx"; "goodput";
               "slowdown"; "2pc-aborts" ]
           ~rows))
    apps;
  let bad = violations r in
  if bad = [] && r.missing = [] then
    Buffer.add_string b
      "\nEvery cell completed with consistent output; no run wedged, no \
       Save-work regressions.\n"
  else begin
    if bad <> [] then begin
      Buffer.add_string b "\nViolations:\n";
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "  %s/%s @ %s: %s%s%s%s\n" (Figure8.app_name c.c_app)
               c.c_protocol c.c_point.label c.c_outcome
               (if c.c_wedged then " WEDGED" else "")
               (if not c.c_consistent then
                  " INCONSISTENT(" ^ c.c_cons_msg ^ ")"
                else "")
               (if c.c_save_work_broken then " SAVE-WORK-BROKEN" else "")))
        bad
    end;
    if r.missing <> [] then begin
      Buffer.add_string b "\nJobs without a verdict:\n";
      List.iter
        (fun k -> Buffer.add_string b (Printf.sprintf "  %s\n" k))
        r.missing
    end
  end;
  Buffer.contents b
