(** Table 1: fraction of application faults that violate Lose-work by
    committing after the fault is activated (paper §4.1).

    For each fault type we inject a planned fault into nvi or postgres
    running under Discount Checking with CPVS (the best uniprocess
    protocol for not violating Lose-work), keep only runs that crash,
    and judge from the run's trace whether a commit landed between fault
    activation and the crash ({!Ft_core.Lose_work.committed_after_activation}).
    The end-to-end check mirrors the paper's: recovery suppresses the
    fault activation; the run must then complete with consistent output
    iff no commit followed activation. *)

type app = Nvi | Postgres

let app_name = function Nvi -> "nvi" | Postgres -> "postgres"

let workload = function
  | Nvi -> Ft_apps.Nvi.workload ~params:Ft_apps.Nvi.small_params ()
  | Postgres -> Ft_apps.Postgres.workload ~params:Ft_apps.Postgres.small_params ()

type run_class =
  | No_effect           (* completed with correct output: discarded *)
  | Wrong_output        (* completed but output diverged: discarded *)
  | Hung  (* endless loop or out-of-patience run: indeterminate, discarded *)
  | Crashed of {
      violation : bool;         (* commit between activation and crash *)
      recovered : bool;         (* end-to-end: consistent completion *)
    }

type row = {
  fault_type : Ft_faults.Fault_type.t;
  crashes : int;
  violations : int;
  wrong_output : int;
  no_effect : int;
  end_to_end_mismatches : int;
      (* runs where recovery success did not equal no-violation: the
         paper observed zero of these *)
}

let base_cfg w =
  Ft_apps.Workload.engine_config w
    { Ft_runtime.Engine.default_config with
      protocol = Ft_core.Protocols.cpvs;
      suppress_faults_on_recovery = true;
      max_recovery_attempts = 2 }

(* The per-trial instruction budget of every fault campaign: a multiple
   of the fault-free run's instruction count [horizon]. *)
let budget ~horizon = (40 * horizon) + 200_000

(* The trial loop of every fault campaign (Tables 1 and 2, Rescue, the
   crash-early ablation): trial [i] runs [run (seed0 + i)], until
   [target_crashes] outcomes [crashed] or [max_attempts] trials ran. *)
let trials ~target_crashes ~max_attempts ~seed0 ~crashed run =
  let rec go i crashes acc =
    if crashes >= target_crashes || i >= max_attempts then List.rev acc
    else
      let o = run (seed0 + i) in
      go (i + 1) (if crashed o then crashes + 1 else crashes) (o :: acc)
  in
  go 0 0 []

let reference w =
  let cfg = base_cfg w in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  (r.Ft_runtime.Engine.visible, r.Ft_runtime.Engine.wall_instructions)

(* One injected run.  Returns its classification.  Runs are bounded by a
   multiple of the fault-free instruction count: an injected fault that
   loops forever is a hang, not a crash, and is discarded like the
   paper's non-crashing runs. *)
let run_one (w : Ft_apps.Workload.t) ~fault_type ~reference_visible ~horizon
    ~seed =
  let cfg =
    { (base_cfg w) with
      Ft_runtime.Engine.max_instructions = budget ~horizon }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let engine = Ft_runtime.Engine.create ~cfg ~kernel ~programs:w.programs () in
  let rng = Random.State.make [| seed |] in
  match
    Ft_faults.App_injector.plan rng fault_type ~code:w.programs.(0) ~horizon
  with
  | None -> No_effect
  | Some plan ->
      Ft_faults.App_injector.arm engine ~pid:0 plan;
      let r = Ft_runtime.Engine.run engine in
      let consistent =
        Ft_core.Consistency.is_consistent ~reference:reference_visible
          ~observed:r.Ft_runtime.Engine.visible
      in
      if r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Instruction_budget
      then
        (* Either an endless loop, or a slow-burn crash whose recovery ran
           out of patience: indeterminate, so discarded. *)
        Hung
      else if r.Ft_runtime.Engine.crashes = 0 then
        if consistent then No_effect else Wrong_output
      else
        Crashed
          {
            violation =
              (match r.Ft_runtime.Engine.activation with
              | Some activation ->
                  Ft_core.Lose_work.committed_after_activation
                    r.Ft_runtime.Engine.trace ~activation
              | None -> false);
            recovered =
              r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
              && consistent;
          }

let campaign ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 1000)
    ~mk_workload fault_type =
  let reference_visible, horizon = reference (mk_workload ()) in
  let outcomes =
    trials ~target_crashes ~max_attempts ~seed0
      ~crashed:(function Crashed _ -> true | _ -> false)
      (fun seed ->
        run_one (mk_workload ()) ~fault_type ~reference_visible ~horizon ~seed)
  in
  let count p = List.length (List.filter p outcomes) in
  {
    fault_type;
    crashes = count (function Crashed _ -> true | _ -> false);
    violations =
      count (function Crashed { violation; _ } -> violation | _ -> false);
    wrong_output = count (( = ) Wrong_output);
    no_effect = count (function No_effect | Hung -> true | _ -> false);
    (* The paper found runs recovered iff they did not commit after
       activation; any mismatch indicates a checkpointing bug. *)
    end_to_end_mismatches =
      count (function
        | Crashed { violation; recovered } -> recovered = violation
        | _ -> false);
  }

(* Each campaign's per-trial RNG is seeded from the campaign's identity
   (app and fault type), not from its position in the sweep or any
   shared counter: enumeration order and worker scheduling cannot change
   a trial's seed, which is what makes parallel sweeps reproduce serial
   ones byte for byte. *)
let campaign_seed ~seed0 ~app fault_type =
  seed0
  + (match app with Nvi -> 0 | Postgres -> 100_000)
  + (10_000 * Ft_faults.Fault_type.index fault_type)

let row_to_json r =
  Ft_exp.Jstore.Obj
    [
      ("fault", Ft_exp.Jstore.String (Ft_faults.Fault_type.to_string r.fault_type));
      ("crashes", Ft_exp.Jstore.Int r.crashes);
      ("violations", Ft_exp.Jstore.Int r.violations);
      ("wrong_output", Ft_exp.Jstore.Int r.wrong_output);
      ("no_effect", Ft_exp.Jstore.Int r.no_effect);
      ("e2e_mismatches", Ft_exp.Jstore.Int r.end_to_end_mismatches);
    ]

let row_of_json fault_type v =
  {
    fault_type;
    crashes = Ft_exp.Jstore.get_int "crashes" v;
    violations = Ft_exp.Jstore.get_int "violations" v;
    wrong_output = Ft_exp.Jstore.get_int "wrong_output" v;
    no_effect = Ft_exp.Jstore.get_int "no_effect" v;
    end_to_end_mismatches = Ft_exp.Jstore.get_int "e2e_mismatches" v;
  }

let job_key ~target_crashes ~max_attempts ~seed ~app ft =
  Printf.sprintf "table1/%s/%s/crashes=%d/attempts=%d/seed=%d" (app_name app)
    (Ft_faults.Fault_type.to_string ft)
    target_crashes max_attempts seed

(* One (fault type, seed, job key) per campaign: [jobs] and [of_records]
   both walk it. *)
let cells ~target_crashes ~max_attempts ~seed0 ~app =
  List.map
    (fun ft ->
      let seed = campaign_seed ~seed0 ~app ft in
      (ft, seed, job_key ~target_crashes ~max_attempts ~seed ~app ft))
    Ft_faults.Fault_type.all

let jobs ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 1000) ~app ()
    =
  List.map
    (fun (ft, seed, key) ->
      Ft_exp.Job.make ~key ~seed (fun () ->
          row_to_json
            (campaign ~target_crashes ~max_attempts ~seed0:seed
               ~mk_workload:(fun () -> workload app)
               ft)))
    (cells ~target_crashes ~max_attempts ~seed0 ~app)

let of_records ?(target_crashes = 50) ?(max_attempts = 900) ?(seed0 = 1000)
    ~app lookup =
  List.map
    (fun (ft, _, key) ->
      row_of_json ft
        (Option.value (lookup key) ~default:(Ft_exp.Jstore.Obj [])))
    (cells ~target_crashes ~max_attempts ~seed0 ~app)

let violation_pct row =
  if row.crashes = 0 then 0.
  else 100. *. float_of_int row.violations /. float_of_int row.crashes

let average rows =
  let crashed = List.filter (fun r -> r.crashes > 0) rows in
  if crashed = [] then 0.
  else
    List.fold_left (fun a r -> a +. violation_pct r) 0. crashed
    /. float_of_int (List.length crashed)

let render ~app rows =
  Report.section
    (Printf.sprintf
       "Table 1 (%s): application faults violating Lose-work" (app_name app))
  ^ Report.table
      ~headers:
        [ "Fault type"; "crashes"; "violations"; "%"; "wrong-out"; "benign";
          "e2e-mism" ]
      ~rows:
        (List.map
           (fun r ->
             [
               Ft_faults.Fault_type.to_string r.fault_type;
               string_of_int r.crashes;
               string_of_int r.violations;
               Report.pct (violation_pct r);
               string_of_int r.wrong_output;
               string_of_int r.no_effect;
               string_of_int r.end_to_end_mismatches;
             ])
           rows
        @ [ [ "Average"; ""; ""; Report.pct (average rows); ""; ""; "" ] ])
