(** Table 2: fraction of operating-system faults after which the
    application fails to recover (paper §4.2).

    Each run injects one planned kernel fault.  Non-corrupting faults
    panic the kernel after a delay — a pure stop failure, from which
    recovery always works.  Corrupting faults serve bit-flipped results
    from one syscall subsystem until the panic; if the corruption reaches
    application state and gets committed before the eventual crash, the
    application keeps failing after recovery (a Lose-work violation with
    the propagation failure originating in the OS). *)

type row = {
  fault_type : Ft_faults.Fault_type.t;
  crashes : int;                 (* runs where system or app crashed *)
  failed_recoveries : int;
  propagated : int;              (* corruption reached the application *)
  no_effect : int;
}

let base_cfg (w : Ft_apps.Workload.t) =
  Ft_apps.Workload.engine_config w
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cpvs;
      suppress_faults_on_recovery = true;
      max_recovery_attempts = 2 }

let run_one ~(mk_workload : unit -> Ft_apps.Workload.t) ~reference_visible
    ~horizon ~weights ~fault_type ~seed =
  let w = mk_workload () in
  let cfg = base_cfg w in
  let cfg =
    { cfg with Ft_runtime.Engine.max_instructions = (40 * horizon) + 200_000 }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let rng = Random.State.make [| seed |] in
  let plan = Ft_faults.Os_injector.plan ~weights rng fault_type in
  let fault = Ft_faults.Os_injector.arm kernel plan in
  let engine = Ft_runtime.Engine.create ~cfg ~kernel ~programs:w.programs () in
  let r = Ft_runtime.Engine.run engine in
  ignore reference_visible;
  let crashed =
    r.Ft_runtime.Engine.crashes > 0
    && r.Ft_runtime.Engine.outcome <> Ft_runtime.Engine.Instruction_budget
  in
  (* "Failed to recover" is the paper's criterion: the application does
     not come back up and run to completion (typically a crash loop from
     committed corrupted state).  A run whose output the kernel fault had
     already garbled before the crash still counts as recovered — the
     recovery system itself did its job. *)
  let recovered =
    r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
  in
  ( crashed,
    recovered,
    Ft_faults.Os_injector.propagated fault )

let campaign ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~mk_workload ~reference_visible ~horizon ~weights fault_type =
  let crashes = ref 0 and failed = ref 0 and propagated = ref 0
  and benign = ref 0 in
  let attempt = ref 0 in
  while !crashes < target_crashes && !attempt < max_attempts do
    let crashed, recovered, prop =
      run_one ~mk_workload ~reference_visible ~horizon ~weights ~fault_type
        ~seed:(seed0 + !attempt)
    in
    if crashed then begin
      incr crashes;
      if not recovered then incr failed;
      if prop then incr propagated
    end
    else incr benign;
    incr attempt
  done;
  {
    fault_type;
    crashes = !crashes;
    failed_recoveries = !failed;
    propagated = !propagated;
    no_effect = !benign;
  }

(* Table-2 sessions: comparable duration for both applications, with
   nvi making ~10x the syscalls per second (the paper's non-interactive
   nvi), so a kernel corruption window of a given length exposes nvi to
   proportionally more corrupted results. *)
let workload = function
  | Table1.Nvi ->
      Ft_apps.Nvi.workload
        ~params:
          { Ft_apps.Nvi.small_params with
            Ft_apps.Nvi.keystrokes = 1_000; interval_ns = 100_000 }
        ()
  | Table1.Postgres ->
      Ft_apps.Postgres.workload
        ~params:
          { Ft_apps.Postgres.small_params with
            Ft_apps.Postgres.queries = 120; interval_ns = 1_000_000 }
        ()

(* One full campaign for one fault type, self-contained (computes its
   own fault-free reference run): the unit of work a sweep job wraps. *)
let standalone_campaign ~target_crashes ~max_attempts ~seed0
    ~(app : Table1.app) ft =
  let mk_workload () = workload app in
  let w = mk_workload () in
  let cfg = base_cfg w in
  let kernel = Ft_apps.Workload.kernel w in
  let _, ref_run =
    Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
  in
  let reference_visible = ref_run.Ft_runtime.Engine.visible in
  let horizon = ref_run.Ft_runtime.Engine.wall_instructions in
  (* the injected fault lands in kernel paths the app exercises *)
  let weights = Ft_faults.Os_injector.usage_weights kernel in
  campaign ~target_crashes ~max_attempts ~seed0 ~mk_workload
    ~reference_visible ~horizon ~weights ft

(* Same identity-derived trial seeding as Table 1 (see
   {!Table1.campaign_seed}), offset so the two tables never share
   per-trial seeds even under a common [seed0]. *)
let campaign_seed ~seed0 ~app fault_type =
  Table1.campaign_seed ~seed0:(seed0 + 1_000_000) ~app fault_type

let row_to_json r =
  Ft_exp.Jstore.Obj
    [
      ("fault", Ft_exp.Jstore.String (Ft_faults.Fault_type.to_string r.fault_type));
      ("crashes", Ft_exp.Jstore.Int r.crashes);
      ("failed_recoveries", Ft_exp.Jstore.Int r.failed_recoveries);
      ("propagated", Ft_exp.Jstore.Int r.propagated);
      ("no_effect", Ft_exp.Jstore.Int r.no_effect);
    ]

let row_of_json fault_type v =
  {
    fault_type;
    crashes = Ft_exp.Jstore.get_int "crashes" v;
    failed_recoveries = Ft_exp.Jstore.get_int "failed_recoveries" v;
    propagated = Ft_exp.Jstore.get_int "propagated" v;
    no_effect = Ft_exp.Jstore.get_int "no_effect" v;
  }

let job_key ~target_crashes ~max_attempts ~seed ~app ft =
  Printf.sprintf "table2/%s/%s/crashes=%d/attempts=%d/seed=%d"
    (Table1.app_name app)
    (Ft_faults.Fault_type.to_string ft)
    target_crashes max_attempts seed

let jobs ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~(app : Table1.app) () =
  List.map
    (fun ft ->
      let seed = campaign_seed ~seed0 ~app ft in
      Ft_exp.Job.make
        ~key:(job_key ~target_crashes ~max_attempts ~seed ~app ft)
        ~seed
        (fun () ->
          row_to_json
            (standalone_campaign ~target_crashes ~max_attempts ~seed0:seed
               ~app ft)))
    Ft_faults.Fault_type.all

let of_records ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~app lookup =
  List.map
    (fun ft ->
      let seed = campaign_seed ~seed0 ~app ft in
      match lookup (job_key ~target_crashes ~max_attempts ~seed ~app ft) with
      | Some v -> row_of_json ft v
      | None ->
          {
            fault_type = ft;
            crashes = 0;
            failed_recoveries = 0;
            propagated = 0;
            no_effect = 0;
          })
    Ft_faults.Fault_type.all

let run ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~(app : Table1.app) () =
  of_records ~target_crashes ~max_attempts ~seed0 ~app
    (Ft_exp.Exp.lookup
       (Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~name:"table2"
          (jobs ~target_crashes ~max_attempts ~seed0 ~app ())))

let failure_pct row =
  if row.crashes = 0 then 0.
  else 100. *. float_of_int row.failed_recoveries /. float_of_int row.crashes

let average rows =
  let crashed = List.filter (fun r -> r.crashes > 0) rows in
  if crashed = [] then 0.
  else
    List.fold_left (fun a r -> a +. failure_pct r) 0. crashed
    /. float_of_int (List.length crashed)

(* Inferred fraction of OS failures that manifested as propagation
   failures (§4.2's closing inference). *)
let propagation_fraction rows =
  let crashes = List.fold_left (fun a r -> a + r.crashes) 0 rows in
  let prop = List.fold_left (fun a r -> a + r.propagated) 0 rows in
  if crashes = 0 then 0.
  else 100. *. float_of_int prop /. float_of_int crashes

let render ~app rows =
  Report.section
    (Printf.sprintf "Table 2 (%s): OS faults with failed recovery"
       (Table1.app_name app))
  ^ Report.table
      ~headers:
        [ "Fault type"; "crashes"; "failed rec."; "%"; "propagated" ]
      ~rows:
        (List.map
           (fun r ->
             [
               Ft_faults.Fault_type.to_string r.fault_type;
               string_of_int r.crashes;
               string_of_int r.failed_recoveries;
               Report.pct (failure_pct r);
               string_of_int r.propagated;
             ])
           rows
        @ [ [ "Average"; ""; ""; Report.pct (average rows); "" ] ])
