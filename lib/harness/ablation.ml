(** Ablations of the design choices DESIGN.md calls out, each one a
    measured version of a §2.6 claim:

    - {e crash early}: checking consistency more often shortens dangerous
      paths and lowers the Lose-work violation rate;
    - {e commit less state}: excluding recomputable pages from
      checkpoints shrinks commits (at the price of recomputation after
      recovery);
    - {e page size}: smaller COW pages shrink checkpoint payloads but pay
      more protection traps;
    - {e disk model}: how much of DC-disk's overhead is the synchronous
      access latency.

    Each study lists {!Ft_exp.Job.t}s and assembles its rows from stored
    job values, so the ablations run on the same parallel, resumable
    sweep machinery as the paper's tables. *)

(* The one-off studies below run their jobs serially, in memory. *)
let sweep js =
  Ft_exp.Exp.lookup
    (Ft_exp.Exp.run_sweep ~workers:1 ~quiet:true ~name:"ablation" js)

(* --- crash early ---------------------------------------------------------- *)

type crash_early_row = {
  check_every : int;
  crashes : int;
  violations : int;
  violation_pct : float;
}

(* One campaign: violation rate of heap bit flips in nvi at one
   consistency-check cadence.  [seed] pins every trial
   (trial i uses seed + i), independent of the cadence's position in
   the sweep. *)
let crash_early_campaign ~check_every ~target_crashes ~max_attempts ~seed =
  let mk_workload () =
    Ft_apps.Nvi.workload
      ~params:{ Ft_apps.Nvi.small_params with Ft_apps.Nvi.check_every }
      ()
  in
  (* run a Table-1-style campaign against this variant *)
  let w = mk_workload () in
  let cfg = Table1.base_cfg w in
  let kernel = Ft_apps.Workload.kernel w in
  let _, ref_run =
    Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
  in
  let horizon = ref_run.Ft_runtime.Engine.wall_instructions in
  let crashes = ref 0 and violations = ref 0 and attempt = ref 0 in
  while !crashes < target_crashes && !attempt < max_attempts do
    let w = mk_workload () in
    let cfg =
      { (Table1.base_cfg w) with
        Ft_runtime.Engine.max_instructions = (40 * horizon) + 200_000 }
    in
    let kernel = Ft_apps.Workload.kernel w in
    let engine =
      Ft_runtime.Engine.create ~cfg ~kernel ~programs:w.programs ()
    in
    let rng = Random.State.make [| seed + !attempt |] in
    (match
       Ft_faults.App_injector.plan rng Ft_faults.Fault_type.Heap_bit_flip
         ~code:w.programs.(0) ~horizon
     with
    | Some plan ->
        Ft_faults.App_injector.arm engine ~pid:0 plan;
        let r = Ft_runtime.Engine.run engine in
        if
          r.Ft_runtime.Engine.first_crash <> None
          && r.Ft_runtime.Engine.outcome
             <> Ft_runtime.Engine.Instruction_budget
        then begin
          incr crashes;
          if r.Ft_runtime.Engine.commit_after_activation then incr violations
        end
    | None -> ());
    incr attempt
  done;
  {
    check_every;
    crashes = !crashes;
    violations = !violations;
    violation_pct =
      (if !crashes = 0 then 0.
       else 100. *. float_of_int !violations /. float_of_int !crashes);
  }

let crash_early_seed0 = 31_000

(* the cadence is the campaign's identity; fold it into the seed *)
let crash_early_seed ~check_every = crash_early_seed0 + (7 * check_every)

let crash_early_key ~target_crashes ~max_attempts ~check_every ~seed =
  Printf.sprintf "ablation/crash_early/every=%d/crashes=%d/attempts=%d/seed=%d"
    check_every target_crashes max_attempts seed

let crash_early_jobs ?(cadences = [ 1; 16; 1_000_000 ]) ?(target_crashes = 25)
    ?(max_attempts = 700) () =
  List.map
    (fun check_every ->
      let seed = crash_early_seed ~check_every in
      Ft_exp.Job.make
        ~key:(crash_early_key ~target_crashes ~max_attempts ~check_every ~seed)
        ~seed
        (fun () ->
          let r =
            crash_early_campaign ~check_every ~target_crashes ~max_attempts
              ~seed
          in
          Ft_exp.Jstore.Obj
            [
              ("check_every", Ft_exp.Jstore.Int r.check_every);
              ("crashes", Ft_exp.Jstore.Int r.crashes);
              ("violations", Ft_exp.Jstore.Int r.violations);
            ]))
    cadences

let crash_early_of_records ?(cadences = [ 1; 16; 1_000_000 ])
    ?(target_crashes = 25) ?(max_attempts = 700) lookup =
  List.map
    (fun check_every ->
      let seed = crash_early_seed ~check_every in
      match
        lookup (crash_early_key ~target_crashes ~max_attempts ~check_every ~seed)
      with
      | Some v ->
          let crashes = Ft_exp.Jstore.get_int "crashes" v in
          let violations = Ft_exp.Jstore.get_int "violations" v in
          {
            check_every;
            crashes;
            violations;
            violation_pct =
              (if crashes = 0 then 0.
               else 100. *. float_of_int violations /. float_of_int crashes);
          }
      | None ->
          { check_every; crashes = 0; violations = 0; violation_pct = 0. })
    cadences

let crash_early ?(cadences = [ 1; 16; 1_000_000 ]) ?(target_crashes = 25)
    ?(max_attempts = 700) () =
  crash_early_of_records ~cadences ~target_crashes ~max_attempts
    (sweep (crash_early_jobs ~cadences ~target_crashes ~max_attempts ()))

let render_crash_early rows =
  Report.section
    "Ablation: crash-early consistency checks vs Lose-work (2.6)"
  ^ Report.table
      ~headers:[ "check cadence"; "crashes"; "violations"; "%" ]
      ~rows:
        (List.map
           (fun r ->
             [
               (if r.check_every >= 1_000_000 then "never"
                else Printf.sprintf "every %d keystrokes" r.check_every);
               string_of_int r.crashes;
               string_of_int r.violations;
               Report.pct r.violation_pct;
             ])
           rows)
  ^ "Checking more often crashes the editor sooner after corruption,\n\
     leaving fewer commits on the dangerous path.\n"

(* --- commit less state ----------------------------------------------------- *)

type exclusion_row = {
  label : string;
  sim_time_ns : int;
  overhead_pct : float;
}

(* magic's framebuffer (pages >= fb_base/page) is fully re-rendered every
   command: excluding it from checkpoints loses nothing. *)
let exclusion_run ~commands ~excluded ~protocol =
  let params = { Ft_apps.Magic.small_params with Ft_apps.Magic.commands } in
  let fb_first_page = Ft_apps.Magic.fb_base / 64 in
  let w = Ft_apps.Magic.workload ~params () in
  let cfg =
    Ft_apps.Workload.engine_config w
      { Ft_runtime.Engine.default_config with
        protocol;
        medium = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default;
        excluded_pages =
          (if excluded then fun p -> p >= fb_first_page else fun _ -> false) }
  in
  let kernel = Ft_apps.Workload.kernel w in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs () in
  r.Ft_runtime.Engine.sim_time_ns

let exclusion_key ~commands =
  Printf.sprintf "ablation/exclusion/commands=%d" commands

let exclusion_jobs ?(commands = 40) () =
  [
    Ft_exp.Job.make ~key:(exclusion_key ~commands) ~seed:0 (fun () ->
        let base =
          exclusion_run ~commands ~excluded:false
            ~protocol:Ft_core.Protocols.no_commit
        in
        let full =
          exclusion_run ~commands ~excluded:false
            ~protocol:Ft_core.Protocols.cpvs
        in
        let slim =
          exclusion_run ~commands ~excluded:true
            ~protocol:Ft_core.Protocols.cpvs
        in
        Ft_exp.Jstore.Obj
          [
            ("base_ns", Ft_exp.Jstore.Int base);
            ("full_ns", Ft_exp.Jstore.Int full);
            ("slim_ns", Ft_exp.Jstore.Int slim);
          ]);
  ]

let exclusion_of_records ?(commands = 40) lookup =
  match lookup (exclusion_key ~commands) with
  | None -> []
  | Some v ->
      let base = Ft_exp.Jstore.get_int "base_ns" v in
      let full = Ft_exp.Jstore.get_int "full_ns" v in
      let slim = Ft_exp.Jstore.get_int "slim_ns" v in
      let pct t =
        if base = 0 then 0.
        else 100. *. (float_of_int t -. float_of_int base) /. float_of_int base
      in
      [
        { label = "full checkpoints"; sim_time_ns = full;
          overhead_pct = pct full };
        { label = "framebuffer excluded"; sim_time_ns = slim;
          overhead_pct = pct slim };
      ]

let exclusion ?(commands = 40) () =
  exclusion_of_records ~commands
    (sweep (exclusion_jobs ~commands ()))

let render_exclusion rows =
  Report.section "Ablation: excluding recomputable state from commits (2.6)"
  ^ Report.table
      ~headers:[ "configuration"; "sim time (ms)"; "DC-disk overhead" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.label;
               string_of_int (r.sim_time_ns / 1_000_000);
               Report.pct1 r.overhead_pct;
             ])
           rows)

(* --- page size -------------------------------------------------------------- *)

type page_row = { page_size : int; sim_time_ns : int }

let page_size_key ~size = Printf.sprintf "ablation/page_size/words=%d" size

let page_size_jobs ?(sizes = [ 16; 64; 256 ]) () =
  List.map
    (fun size ->
      Ft_exp.Job.make ~key:(page_size_key ~size) ~seed:0 (fun () ->
          let w =
            Ft_apps.Magic.workload
              ~params:
                { Ft_apps.Magic.small_params with Ft_apps.Magic.commands = 25 }
              ()
          in
          let cfg =
            Ft_apps.Workload.engine_config w
              { Ft_runtime.Engine.default_config with
                page_size = size;
                medium = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default
              }
          in
          let kernel = Ft_apps.Workload.kernel w in
          let _, r =
            Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
          in
          Ft_exp.Jstore.Obj
            [ ("sim_ns", Ft_exp.Jstore.Int r.Ft_runtime.Engine.sim_time_ns) ]))
    sizes

let page_size_of_records ?(sizes = [ 16; 64; 256 ]) lookup =
  List.map
    (fun size ->
      match lookup (page_size_key ~size) with
      | Some v ->
          { page_size = size; sim_time_ns = Ft_exp.Jstore.get_int "sim_ns" v }
      | None -> { page_size = size; sim_time_ns = 0 })
    sizes

let page_size ?(sizes = [ 16; 64; 256 ]) () =
  page_size_of_records ~sizes
    (sweep (page_size_jobs ~sizes ()))

let render_page_size rows =
  Report.section "Ablation: COW page size (checkpoint payload vs traps)"
  ^ Report.table
      ~headers:[ "page (words)"; "sim time (ms)" ]
      ~rows:
        (List.map
           (fun r ->
             [ string_of_int r.page_size;
               string_of_int (r.sim_time_ns / 1_000_000) ])
           rows)

(* --- disk model --------------------------------------------------------------- *)

let disk_model_media =
  [
    ("reliable memory (Rio)", None);
    ("1998 SCSI disk", Some Ft_stablemem.Disk.default);
    ("fast disk", Some Ft_stablemem.Disk.fast);
  ]

let disk_model_key ~label =
  Printf.sprintf "ablation/disk_model/%s" label

let disk_model_jobs () =
  List.map
    (fun (label, disk) ->
      Ft_exp.Job.make ~key:(disk_model_key ~label) ~seed:0 (fun () ->
          let w =
            Ft_apps.Nvi.workload
              ~params:
                { Ft_apps.Nvi.small_params with
                  Ft_apps.Nvi.keystrokes = 150; interval_ns = 20_000_000 }
              ()
          in
          let cfg =
            Ft_apps.Workload.engine_config w
              { Ft_runtime.Engine.default_config with
                medium =
                  (match disk with
                  | None -> Ft_runtime.Checkpointer.Reliable_memory
                  | Some d -> Ft_runtime.Checkpointer.Disk d) }
          in
          let kernel = Ft_apps.Workload.kernel w in
          let _, r =
            Ft_runtime.Engine.execute ~cfg ~kernel ~programs:w.programs ()
          in
          Ft_exp.Jstore.Obj
            [ ("sim_ns", Ft_exp.Jstore.Int r.Ft_runtime.Engine.sim_time_ns) ]))
    disk_model_media

let disk_model_of_records lookup =
  List.map
    (fun (label, _) ->
      match lookup (disk_model_key ~label) with
      | Some v -> (label, Ft_exp.Jstore.get_int "sim_ns" v)
      | None -> (label, 0))
    disk_model_media

let disk_model () =
  disk_model_of_records (sweep (disk_model_jobs ()))

let render_disk_model rows =
  Report.section "Ablation: commit medium (why Rio matters)"
  ^ Report.table
      ~headers:[ "medium"; "sim time (ms)" ]
      ~rows:
        (List.map
           (fun (label, t) -> [ label; string_of_int (t / 1_000_000) ])
           rows)

(* --- the whole suite --------------------------------------------------------- *)

let jobs () =
  crash_early_jobs () @ exclusion_jobs () @ page_size_jobs ()
  @ disk_model_jobs ()

let render_records lookup =
  render_crash_early (crash_early_of_records lookup)
  ^ render_exclusion (exclusion_of_records lookup)
  ^ render_page_size (page_size_of_records lookup)
  ^ render_disk_model (disk_model_of_records lookup)

let run_all () =
  render_records (sweep (jobs ()))
