(* What one timed pass of a workload reports, and the shape every
   workload has: [setup] builds inputs and initial state and returns the
   pass, which runs them and checks every operation. *)

type t = {
  ops : int;  (** operations attempted *)
  failures : string list;  (** one line per failed operation *)
  sim_instr : int;
      (** simulated VM instructions executed, replay and reference runs
          included *)
  mc_nodes : int;  (** model-checker DFS nodes visited *)
  sim : (string * float) list;
      (** simulated end-to-end metrics: deterministic per seed *)
  counts : (string * float) list;
      (** per-layer counts: deterministic per seed *)
  digest : string;  (** canonical text of every simulated statistic *)
  host : Span.t list -> (string * float) list;
      (** per-layer host-time estimates from a traced pass's spans *)
}

type workload = {
  name : string;
  setup : seed:int -> out_dir:string -> unit -> t;
      (** [setup ~seed ~out_dir] does the set-up work and returns the pass *)
}

let ratio a b = if b = 0. then 0. else a /. b
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* A derived sub-seed: a pure function of (seed, salt, i). *)
let subseed ~seed ~salt i =
  Random.State.bits (Random.State.make [| seed; salt; i |])

let outcome_name = function
  | Ft_runtime.Scheduler.Completed -> "completed"
  | Deadline -> "deadline"
  | Recovery_failed -> "recovery-failed"
  | Deadlocked -> "deadlocked"
  | Instruction_budget -> "instruction-budget"
  | Net_unreachable -> "net-unreachable"

let syscalls kernel =
  isum (Ft_os.Kernel.syscall_count kernel) Ft_vm.Syscall.all

let rio_words ckpt ~nprocs =
  isum
    (fun pid ->
      Ft_stablemem.Rio.words_written
        (Ft_stablemem.Vista.region (Ft_runtime.Checkpointer.vista ckpt ~pid)))
    (List.init nprocs Fun.id)

let saves_work (r : Ft_runtime.Scheduler.result) =
  Span.with_ "oracle.save_work" (fun () ->
      Ft_core.Save_work.visible_violations r.Ft_runtime.Scheduler.trace = [])

(* The oracle verdict of one run against its fault-free reference:
   [None] when clean, else what broke.  Save-work-visible is judged only
   where it holds on the reference ([reference_saves_work], forced only
   when needed), and, as [ft run] does, not on a killed run of a logging
   protocol: the whole trace keeps that run's dead rolled-back segments,
   which the oracle would misread. *)
let judge ~name ~(protocol : Ft_core.Protocol.spec)
    ~(reference : Ft_runtime.Scheduler.result) ~reference_saves_work
    (r : Ft_runtime.Scheduler.result) =
  let module S = Ft_runtime.Scheduler in
  let consistency =
    Span.with_ "oracle.consistency" (fun () ->
        Ft_core.Consistency.check ~reference:reference.S.visible
          ~observed:r.S.visible)
  in
  let save_work_broken () =
    (r.S.crashes = 0
    || protocol.Ft_core.Protocol.style = Ft_core.Protocol.Coordinated)
    && Lazy.force reference_saves_work
    && not (saves_work r)
  in
  if r.S.outcome <> S.Completed then
    Some (Printf.sprintf "%s: outcome %s" name (outcome_name r.S.outcome))
  else if consistency <> Ft_core.Consistency.Consistent then
    Some
      (Format.asprintf "%s: %a" name Ft_core.Consistency.pp_verdict consistency)
  else if save_work_broken () then Some (name ^ ": save-work broken")
  else None

(* Every simulated statistic of a run, one line. *)
let result_line (r : Ft_runtime.Scheduler.result) =
  let module S = Ft_runtime.Scheduler in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "%s t=%d i=%d c=[%s] nd=[%s] log=[%s] vis=[%s] rec=%d cr=%d rcr=%d ab=%d \
     orph=%d nest=%d res=%d dhw=%d dfl=%d out=%s crashes=%s"
    (outcome_name r.S.outcome) r.S.sim_time_ns r.S.wall_instructions
    (ints r.S.commit_counts) (ints r.S.nd_counts) (ints r.S.logged_counts)
    (ints r.S.visible_counts) r.S.recoveries r.S.crashes r.S.recovery_crashes
    r.S.aborted_rounds r.S.orphan_rollbacks r.S.nested_crashes
    r.S.cascade_resumes r.S.det_high_water r.S.det_forced_flushes
    (String.concat ","
       (List.map
          (fun (p, v, t) -> Printf.sprintf "%d:%d@%d" p v t)
          r.S.visible_times))
    (String.concat ","
       (List.map (fun (p, t) -> Printf.sprintf "%d@%d" p t) r.S.crash_times))
