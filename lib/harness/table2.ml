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

(* One injected run: (crashed, recovered, propagated). *)
let run_one (w : Ft_apps.Workload.t) ~horizon ~weights ~fault_type ~seed =
  let cfg =
    { (Table1.base_cfg w) with
      Ft_runtime.Engine.max_instructions = Table1.budget ~horizon }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let rng = Random.State.make [| seed |] in
  let plan = Ft_faults.Os_injector.plan ~weights rng fault_type in
  let fault = Ft_faults.Os_injector.arm kernel plan in
  let engine = Ft_runtime.Engine.create ~cfg ~kernel ~programs:w.programs () in
  let r = Ft_runtime.Engine.run engine in
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
  (crashed, recovered, Ft_faults.Os_injector.propagated fault)

(* One full campaign for one fault type, self-contained (computes its
   own fault-free reference run): the unit of work a sweep job wraps. *)
let campaign ~target_crashes ~max_attempts ~seed0 ~(app : Table1.app)
    fault_type =
  let w = workload app in
  let kernel = Ft_apps.Workload.kernel w in
  let _, ref_run =
    Ft_runtime.Engine.execute ~cfg:(Table1.base_cfg w) ~kernel
      ~programs:w.programs ()
  in
  let horizon = ref_run.Ft_runtime.Engine.wall_instructions in
  (* the injected fault lands in kernel paths the app exercises *)
  let weights = Ft_faults.Os_injector.usage_weights kernel in
  let outcomes =
    Table1.trials ~target_crashes ~max_attempts ~seed0
      ~crashed:(fun (crashed, _, _) -> crashed)
      (fun seed -> run_one (workload app) ~horizon ~weights ~fault_type ~seed)
  in
  let count p = List.length (List.filter p outcomes) in
  {
    fault_type;
    crashes = count (fun (c, _, _) -> c);
    failed_recoveries = count (fun (c, recovered, _) -> c && not recovered);
    propagated = count (fun (c, _, prop) -> c && prop);
    no_effect = count (fun (c, _, _) -> not c);
  }

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

let cells ~target_crashes ~max_attempts ~seed0 ~app =
  List.map
    (fun ft ->
      let seed = campaign_seed ~seed0 ~app ft in
      (ft, seed, job_key ~target_crashes ~max_attempts ~seed ~app ft))
    Ft_faults.Fault_type.all

let jobs ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~(app : Table1.app) () =
  List.map
    (fun (ft, seed, key) ->
      Ft_exp.Job.make ~key ~seed (fun () ->
          row_to_json
            (campaign ~target_crashes ~max_attempts ~seed0:seed ~app ft)))
    (cells ~target_crashes ~max_attempts ~seed0 ~app)

let of_records ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 5000)
    ~app lookup =
  List.map
    (fun (ft, _, key) ->
      row_of_json ft
        (Option.value (lookup key) ~default:(Ft_exp.Jstore.Obj [])))
    (cells ~target_crashes ~max_attempts ~seed0 ~app)

let failure_pct row =
  if row.crashes = 0 then 0.
  else 100. *. float_of_int row.failed_recoveries /. float_of_int row.crashes

let average rows =
  let crashed = List.filter (fun r -> r.crashes > 0) rows in
  if crashed = [] then 0.
  else
    List.fold_left (fun a r -> a +. failure_pct r) 0. crashed
    /. float_of_int (List.length crashed)

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
