(** Rescue: how much of the paper's "unrecoverable" application-fault
    mass each escalation rung reclaims.

    The paper's headline negative result is that generic recovery fails
    for propagating faults: replay from the last commit re-executes the
    bug.  This campaign injects every §4.1 app-fault type with
    {e recurrence} (code mutations persist in the code; bit flips are
    re-armed on every replay, redrawn only when the environment salt
    changes) and runs each crashed execution under escalating recovery
    ladders — L0 generic replay, L1 deep rollback, L2 perturbed
    replay — measuring, per rung: the fraction of crashed runs rescued,
    the work completed per unit cost (Dwork–Halpern–Waarts: acked
    visible outputs per instruction, replay instructions being pure
    waste), and Consistency violations, which must be zero at every
    rung — escalation trades whose work is lost and what environment
    the replay sees, never correctness.

    Cells (app x fault type x protocol x ladder) are independent
    {!Ft_exp} jobs: sharded, resumable, byte-identical at any [-j]. *)

module Engine = Ft_runtime.Engine
module Jstore = Ft_exp.Jstore
module Policy = Ft_recovery.Policy
module Lineage = Ft_recovery.Lineage

(* The ladders under comparison.  [generic] is the paper's baseline —
   the rung everything above it is measured against. *)
let ladders = [ "generic"; "deep"; "full" ]

let base_cfg ~protocol ~ladder w =
  Ft_apps.Workload.engine_config w
    {
      Engine.default_config with
      protocol;
      (* No fault suppression: the whole point is to meet the recurring
         fault head-on and see which rung gets past it. *)
      suppress_faults_on_recovery = false;
      (* Rung L0: two generic replays before any ladder escalates. *)
      max_recovery_attempts = 2;
      policy = ladder;
    }

let reference ~protocol app =
  let w = Table1.workload app in
  let cfg = base_cfg ~protocol ~ladder:Policy.generic w in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Engine.execute ~cfg ~kernel ~programs:w.programs () in
  ( r.Engine.visible,
    List.length r.Engine.visible,
    r.Engine.wall_instructions )

type crash = {
  rescued : bool;  (* completed with consistent output *)
  rung : int;  (* highest ladder rung used (0..2) *)
  violation : bool;
      (* the recovery machinery corrupted or diverged the output
         stream with no fault having activated — the only party left
         to blame is the ladder itself *)
  tainted : bool;
      (* the fault itself escaped to the released output (a value
         that is neither the expected next output nor a repeat) —
         unrescuable by any recovery scheme, and not the ladder's
         doing *)
  absorbed : int;
      (* replayed outputs that disagreed with a released value and
         were absorbed by the sequenced egress: fault-induced replay
         divergence the user never saw *)
  verdict : Lineage.verdict;
  work : int;  (* distinct visible outputs released *)
  instr : int;
  deep_rollbacks : int;
  perturbed_replays : int;
}

type trial =
  | Benign  (* completed, correct, never crashed: discarded *)
  | Wrong_output  (* silent corruption without a crash: discarded *)
  | Hung  (* instruction budget without a crash: discarded *)
  | Crashed of crash

(* Half the bit flips are cosmic-ray one-shots (fired once, never
   re-armed: the transient mass L0 and — when the corruption was
   committed before the crash — L1 exist for); the other half are
   state-dependent recurrences that re-bite every replay until an L2
   redraw dodges them.  Code mutations always recur: they live in the
   code array. *)
let run_one ~app ~fault_type ~protocol ~ladder ~reference_visible ~horizon
    ~seed =
  let w = Table1.workload app in
  let cfg =
    { (base_cfg ~protocol ~ladder w) with
      Engine.max_instructions = Table1.budget ~horizon }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let engine = Engine.create ~cfg ~kernel ~programs:w.programs () in
  let one_shot =
    (match fault_type with
    | Ft_faults.Fault_type.Stack_bit_flip | Ft_faults.Fault_type.Heap_bit_flip
      ->
        true
    | _ -> false)
    && seed land 1 = 1
  in
  let armed =
    if one_shot then begin
      let rng = Random.State.make [| seed; 0; 0xf11b |] in
      match
        Ft_faults.App_injector.plan rng fault_type ~code:w.programs.(0)
          ~horizon
      with
      | None -> None
      | Some p ->
          Ft_faults.App_injector.arm engine ~pid:0 p;
          Some p
    end
    else
      Ft_faults.App_injector.arm_recurring engine ~pid:0 ~seed fault_type
        ~code:w.programs.(0) ~horizon
  in
  match armed with
  | None -> Benign
  | Some _ -> (
      let r = Engine.run engine in
      let consistent =
        Ft_core.Consistency.is_consistent ~reference:reference_visible
          ~observed:r.Engine.visible
      in
      match r.Engine.crashes with
      | 0 ->
          if r.Engine.outcome = Engine.Instruction_budget then Hung
          else if consistent then Benign
          else Wrong_output
      | _ ->
          (* Attribution: once the injected fault has ACTIVATED, anything
             wrong with the stream is the fault's doing — a corrupt value
             released before any crash (the paper's wrong-output bucket,
             [tainted]) or a replay diverging from a released value (the
             sequenced egress absorbs it; the user never sees it,
             [absorbed]).  Only inconsistency or divergence on a run
             whose fault NEVER activated can be pinned on the recovery
             machinery itself — that is the per-rung zero-violation
             claim. *)
          let activated = r.Engine.activation <> None in
          let extra =
            match
              Ft_core.Consistency.check ~reference:reference_visible
                ~observed:r.Engine.visible
            with
            | Ft_core.Consistency.Extra _ -> true
            | Ft_core.Consistency.Consistent
            | Ft_core.Consistency.Truncated _ ->
                false
          in
          let violation =
            (not activated) && (r.Engine.replay_mismatches > 0 || extra)
          in
          let tainted = activated && extra in
          let rescued = r.Engine.outcome = Engine.Completed && consistent in
          Crashed
            {
              rescued;
              rung = min 2 (Array.fold_left max 0 r.Engine.ladder_peaks);
              violation;
              tainted;
              absorbed = r.Engine.replay_mismatches;
              verdict = r.Engine.fault_classes.(0);
              work = List.length r.Engine.visible;
              instr = r.Engine.wall_instructions;
              deep_rollbacks = r.Engine.deep_rollbacks;
              perturbed_replays = r.Engine.perturbed_replays;
            })

type row = {
  app : Table1.app;
  fault_type : Ft_faults.Fault_type.t;
  protocol_name : string;
  ladder : string;
  trials : int;
  crashes : int;  (* the denominator: runs in which the fault crashed *)
  rescued_by_rung : int array;  (* length 3: rescues whose peak was L0/L1/L2 *)
  unrescued : int;
  violations : int;  (* machinery violations (no fault active): must be 0 *)
  tainted : int;  (* fault escaped to the output before recovery *)
  absorbed : int;  (* fault-induced replay divergences the egress absorbed *)
  wrong_output : int;
  benign : int;
  deep_rollbacks : int;
  perturbed_replays : int;
  transient : int;
  heisenbug : int;
  bohrbug : int;
  sticky : int;
  work : int;  (* visible outputs across crashed runs *)
  instr : int;  (* instructions across crashed runs *)
  ref_work : int;  (* fault-free outputs x crashed runs: the DHW baseline *)
  ref_instr : int;
}

let rescued row = Array.fold_left ( + ) 0 row.rescued_by_rung

let rescued_frac row =
  if row.crashes = 0 then 0.
  else float_of_int (rescued row) /. float_of_int row.crashes

(* Acked visible outputs per million instructions over crashed runs:
   the Dwork–Halpern–Waarts work-per-unit-cost with replay counted as
   pure cost. *)
let work_per_minstr row =
  if row.instr = 0 then 0.
  else float_of_int row.work *. 1e6 /. float_of_int row.instr

let campaign ~target_crashes ~max_attempts ~seed ~app ~protocol ~ladder_name
    fault_type =
  let ladder = Option.get (Policy.by_name ladder_name) in
  let reference_visible, ref_w, ref_i = reference ~protocol app in
  let outcomes =
    Table1.trials ~target_crashes ~max_attempts ~seed0:seed
      ~crashed:(function Crashed _ -> true | _ -> false)
      (fun seed ->
        run_one ~app ~fault_type ~protocol ~ladder ~reference_visible
          ~horizon:ref_i ~seed)
  in
  let cs =
    List.filter_map (function Crashed c -> Some c | _ -> None) outcomes
  in
  let crashes = List.length cs in
  let count p = List.length (List.filter p cs) in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  let discarded p = List.length (List.filter p outcomes) in
  {
    app;
    fault_type;
    protocol_name = protocol.Ft_core.Protocol.spec_name;
    ladder = ladder_name;
    trials = List.length outcomes;
    crashes;
    rescued_by_rung =
      Array.init 3 (fun rung -> count (fun c -> c.rescued && c.rung = rung));
    unrescued = count (fun c -> not c.rescued);
    violations = count (fun c -> c.violation);
    tainted = count (fun c -> c.tainted);
    absorbed = sum (fun c -> c.absorbed);
    wrong_output = discarded (( = ) Wrong_output);
    benign = discarded (function Benign | Hung -> true | _ -> false);
    deep_rollbacks = sum (fun c -> c.deep_rollbacks);
    perturbed_replays = sum (fun c -> c.perturbed_replays);
    transient = count (fun c -> c.verdict = Lineage.Transient);
    heisenbug = count (fun c -> c.verdict = Lineage.Heisenbug);
    bohrbug = count (fun c -> c.verdict = Lineage.Bohrbug);
    sticky = count (fun c -> c.verdict = Lineage.Sticky);
    work = sum (fun c -> c.work);
    instr = sum (fun c -> c.instr);
    ref_work = crashes * ref_w;
    ref_instr = crashes * ref_i;
  }

(* --- resumable jobs -------------------------------------------------------- *)

(* Trial seeds derive from the cell's identity, never from sweep
   position: parallel sweeps reproduce serial ones byte for byte.  The
   ladder is deliberately NOT part of the seed — every ladder meets the
   identical fault sample, so a rescue delta between ladders is a paired
   comparison on the same bugs, not sampling noise. *)
let cell_seed ~seed0 ~app ~protocol_name ft =
  seed0
  + (match app with Table1.Nvi -> 0 | Postgres -> 1_000_000)
  + (100_000 * (Hashtbl.hash protocol_name mod 10))
  + (1_000 * Ft_faults.Fault_type.index ft)

let job_key ~target_crashes ~max_attempts ~seed ~app ~protocol_name
    ~ladder_name ft =
  Printf.sprintf "rescue/%s/%s/%s/%s/crashes=%d/attempts=%d/seed=%d"
    (Table1.app_name app) protocol_name ladder_name
    (Ft_faults.Fault_type.to_string ft)
    target_crashes max_attempts seed

let row_to_json r =
  Jstore.Obj
    [
      ("trials", Jstore.Int r.trials);
      ("crashes", Jstore.Int r.crashes);
      ("rescued_l0", Jstore.Int r.rescued_by_rung.(0));
      ("rescued_l1", Jstore.Int r.rescued_by_rung.(1));
      ("rescued_l2", Jstore.Int r.rescued_by_rung.(2));
      ("unrescued", Jstore.Int r.unrescued);
      ("violations", Jstore.Int r.violations);
      ("tainted", Jstore.Int r.tainted);
      ("absorbed", Jstore.Int r.absorbed);
      ("wrong_output", Jstore.Int r.wrong_output);
      ("benign", Jstore.Int r.benign);
      ("deep_rollbacks", Jstore.Int r.deep_rollbacks);
      ("perturbed_replays", Jstore.Int r.perturbed_replays);
      ("transient", Jstore.Int r.transient);
      ("heisenbug", Jstore.Int r.heisenbug);
      ("bohrbug", Jstore.Int r.bohrbug);
      ("sticky", Jstore.Int r.sticky);
      ("work", Jstore.Int r.work);
      ("instr", Jstore.Int r.instr);
      ("ref_work", Jstore.Int r.ref_work);
      ("ref_instr", Jstore.Int r.ref_instr);
    ]

let row_of_json ~app ~fault_type ~protocol_name ~ladder v =
  let g k = Jstore.get_int k v in
  {
    app;
    fault_type;
    protocol_name;
    ladder;
    trials = g "trials";
    crashes = g "crashes";
    rescued_by_rung = [| g "rescued_l0"; g "rescued_l1"; g "rescued_l2" |];
    unrescued = g "unrescued";
    violations = g "violations";
    tainted = g "tainted";
    absorbed = g "absorbed";
    wrong_output = g "wrong_output";
    benign = g "benign";
    deep_rollbacks = g "deep_rollbacks";
    perturbed_replays = g "perturbed_replays";
    transient = g "transient";
    heisenbug = g "heisenbug";
    bohrbug = g "bohrbug";
    sticky = g "sticky";
    work = g "work";
    instr = g "instr";
    ref_work = g "ref_work";
    ref_instr = g "ref_instr";
  }

type spec = {
  apps : Table1.app list;
  protocols : Ft_core.Protocol.spec list;
  ladder_names : string list;
  fault_types : Ft_faults.Fault_type.t list;
  target_crashes : int;
  max_attempts : int;
  seed0 : int;
}

let default_spec =
  {
    apps = [ Table1.Nvi; Postgres ];
    protocols = [ Ft_core.Protocols.cpvs; Ft_core.Protocols.cbndvs ];
    ladder_names = ladders;
    fault_types = Ft_faults.Fault_type.all;
    target_crashes = 40;
    max_attempts = 600;
    seed0 = 7_000;
  }

(* Small and fast, still covering every fault type, both protocols and
   the baseline-vs-full comparison: the CI gate. *)
let smoke_spec =
  {
    default_spec with
    apps = [ Table1.Nvi ];
    ladder_names = [ "generic"; "full" ];
    target_crashes = 4;
    max_attempts = 40;
  }

(* Every cell with its trial seed and job key: [jobs] and [of_records]
   both walk it. *)
let cells spec =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun protocol ->
          let protocol_name = protocol.Ft_core.Protocol.spec_name in
          List.concat_map
            (fun ladder_name ->
              List.map
                (fun ft ->
                  let seed =
                    cell_seed ~seed0:spec.seed0 ~app ~protocol_name ft
                  in
                  ( (app, protocol, ladder_name, ft),
                    seed,
                    job_key ~target_crashes:spec.target_crashes
                      ~max_attempts:spec.max_attempts ~seed ~app
                      ~protocol_name ~ladder_name ft ))
                spec.fault_types)
            spec.ladder_names)
        spec.protocols)
    spec.apps

let jobs spec =
  List.map
    (fun ((app, protocol, ladder_name, ft), seed, key) ->
      Ft_exp.Job.make ~key ~seed (fun () ->
          row_to_json
            (campaign ~target_crashes:spec.target_crashes
               ~max_attempts:spec.max_attempts ~seed ~app ~protocol
               ~ladder_name ft)))
    (cells spec)

type report = { spec : spec; rows : row list }

let of_records spec lookup =
  let rows =
    List.filter_map
      (fun ((app, protocol, ladder, fault_type), _, key) ->
        Option.map
          (row_of_json ~app ~fault_type
             ~protocol_name:protocol.Ft_core.Protocol.spec_name ~ladder)
          (lookup key))
      (cells spec)
  in
  { spec; rows }

let clean r = List.for_all (fun row -> row.violations = 0) r.rows

(* --- report ---------------------------------------------------------------- *)

(* Aggregate over one ladder: total crashed-run mass and where the
   rescues came from. *)
type ladder_summary = {
  l_name : string;
  l_crashes : int;
  l_rescued_by_rung : int array;
  l_unrescued : int;
  l_violations : int;
  l_work_per_minstr : float;
  l_ref_work_per_minstr : float;
}

let summarize_ladder rows name =
  let rows = List.filter (fun r -> r.ladder = name) rows in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let by_rung =
    Array.init 3 (fun i -> sum (fun r -> r.rescued_by_rung.(i)))
  in
  let instr = sum (fun r -> r.instr) and work = sum (fun r -> r.work) in
  let ref_instr = sum (fun r -> r.ref_instr)
  and ref_work = sum (fun r -> r.ref_work) in
  {
    l_name = name;
    l_crashes = sum (fun r -> r.crashes);
    l_rescued_by_rung = by_rung;
    l_unrescued = sum (fun r -> r.unrescued);
    l_violations = sum (fun r -> r.violations);
    l_work_per_minstr =
      (if instr = 0 then 0. else float_of_int work *. 1e6 /. float_of_int instr);
    l_ref_work_per_minstr =
      (if ref_instr = 0 then 0.
       else float_of_int ref_work *. 1e6 /. float_of_int ref_instr);
  }

let ladder_rescued_frac s =
  if s.l_crashes = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 s.l_rescued_by_rung)
    /. float_of_int s.l_crashes

let summaries r =
  List.map (summarize_ladder r.rows) r.spec.ladder_names

let render r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Report.section
       (Printf.sprintf
          "Rescue: escalation rungs vs the faults generic recovery can't \
           (%d crashes/cell target)"
          r.spec.target_crashes));
  let pct x = Printf.sprintf "%.0f%%" (100. *. x) in
  Buffer.add_string b
    (Report.table
       ~headers:
         [ "app"; "fault"; "proto"; "ladder"; "crashes"; "L0"; "L1"; "L2";
           "stuck"; "resc%"; "work/Mi"; "taint"; "absorb"; "viol" ]
       ~rows:
         (List.map
            (fun row ->
              [
                Table1.app_name row.app;
                Ft_faults.Fault_type.to_string row.fault_type;
                row.protocol_name;
                row.ladder;
                string_of_int row.crashes;
                string_of_int row.rescued_by_rung.(0);
                string_of_int row.rescued_by_rung.(1);
                string_of_int row.rescued_by_rung.(2);
                string_of_int row.unrescued;
                pct (rescued_frac row);
                Printf.sprintf "%.1f" (work_per_minstr row);
                string_of_int row.tainted;
                string_of_int row.absorbed;
                string_of_int row.violations;
              ])
            r.rows));
  Buffer.add_string b "\nPer-ladder totals (fraction of crashed runs rescued):\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-8s crashes %4d  rescued %s (L0 %d, L1 %d, L2 %d)  stuck %d  \
            work/Mi %.1f (fault-free %.1f)  violations %d\n"
           s.l_name s.l_crashes
           (pct (ladder_rescued_frac s))
           s.l_rescued_by_rung.(0) s.l_rescued_by_rung.(1)
           s.l_rescued_by_rung.(2) s.l_unrescued s.l_work_per_minstr
           s.l_ref_work_per_minstr s.l_violations))
    (summaries r);
  let sum f = List.fold_left (fun a row -> a + f row) 0 r.rows in
  Buffer.add_string b
    (Printf.sprintf
       "\nClassifier: %d transient, %d heisenbug, %d bohrbug, %d sticky \
        (over crashed runs, all ladders)\n"
       (sum (fun x -> x.transient))
       (sum (fun x -> x.heisenbug))
       (sum (fun x -> x.bohrbug))
       (sum (fun x -> x.sticky)));
  (if List.for_all (fun row -> row.violations = 0) r.rows then
     Buffer.add_string b
       "\nConsistency clean at every rung: deep rollback and perturbed \
        replay traded work, never correctness.\n"
   else
     Buffer.add_string b "\nCONSISTENCY VIOLATIONS — see the table above.\n");
  Buffer.contents b
