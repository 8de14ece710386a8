(* The checker proper: exhaustive DFS over schedule prefixes, crash
   variants at every node, three oracles, state-hash memoization, and
   sharding over the experiment runner. *)

open Ft_core

type oracle = Invariant | Consistency | Lose_work

let oracle_to_string = function
  | Invariant -> "save-work"
  | Consistency -> "consistency"
  | Lose_work -> "lose-work"

type violation = {
  v_oracle : oracle;
  v_prefix : int list;
  v_crash : Model.crash;
  v_detail : string;
}

type stats = {
  nodes : int;
  runs : int;
  memo_hits : int;
  steps : int;
  violations : violation list;
}

let zero_stats =
  { nodes = 0; runs = 0; memo_hits = 0; steps = 0; violations = [] }

let add_stats a b =
  {
    nodes = a.nodes + b.nodes;
    runs = a.runs + b.runs;
    memo_hits = a.memo_hits + b.memo_hits;
    steps = a.steps + b.steps;
    violations = a.violations @ b.violations;
  }

(* ---- serialization helpers --------------------------------------------- *)

let crash_to_string = function
  | Model.No_crash -> "none"
  | Model.Stop v -> Printf.sprintf "stop:%d" v
  | Model.Mid_commit { landed = true } -> "mid:landed"
  | Model.Mid_commit { landed = false } -> "mid:lost"
  | Model.Lose { src; dst; seq } -> Printf.sprintf "lose:%d.%d.%d" src dst seq
  | Model.Nested { victim; stage = Model.NRestore } ->
      Printf.sprintf "nested:%d:restore" victim
  | Model.Nested { victim; stage = Model.NCascade } ->
      Printf.sprintf "nested:%d:cascade" victim

let crash_of_string = function
  | "none" -> Ok Model.No_crash
  | "mid:landed" -> Ok (Model.Mid_commit { landed = true })
  | "mid:lost" -> Ok (Model.Mid_commit { landed = false })
  | s -> (
      match String.split_on_char ':' s with
      | [ "stop"; v ] -> (
          match int_of_string_opt v with
          | Some v -> Ok (Model.Stop v)
          | None -> Error ("bad stop victim: " ^ s))
      | [ "lose"; m ] -> (
          match
            List.map int_of_string_opt (String.split_on_char '.' m)
          with
          | [ Some src; Some dst; Some seq ] ->
              Ok (Model.Lose { src; dst; seq })
          | _ -> Error ("bad lost message: " ^ s))
      | [ "nested"; v; stage ] -> (
          match (int_of_string_opt v, stage) with
          | Some victim, "restore" ->
              Ok (Model.Nested { victim; stage = Model.NRestore })
          | Some victim, "cascade" ->
              Ok (Model.Nested { victim; stage = Model.NCascade })
          | _ -> Error ("bad nested crash: " ^ s))
      | _ -> Error ("bad crash: " ^ s))

let prefix_to_string prefix =
  String.concat "" (List.map string_of_int prefix)

(* [prefix_to_string] writes a pid as one digit: above 10 processes
   [1; 11] and [1; 1; 1] would both be "111". *)
let max_procs = 10

let prefix_of_string s =
  let rec go acc i =
    if i >= String.length s then Ok (List.rev acc)
    else
      match s.[i] with
      | '0' .. '9' -> go ((Char.code s.[i] - Char.code '0') :: acc) (i + 1)
      | c -> Error (Printf.sprintf "bad schedule char %C" c)
  in
  go [] 0

(* ---- the Lose-work oracle ----------------------------------------------- *)

(* Build the victim's linear state graph (state [i] = "about to execute
   pc i", one extra crash state) with a transient crash edge at the
   crashed pc, classify its receive edges with the Multi-Process
   Dangerous Paths Algorithm over the crash-free prefix trace, and
   require that no commit of the victim landed on a doomed state.  A
   stop failure is transient — re-execution gets past it — so the only
   doomed state a linear program can have is the terminal one with no
   continuation left, a modeling artifact we exclude.  (test_core's
   reference group checks the coloring of every graph of this shape
   against an independent backward recursion.) *)

let victim_graph ~program ~logged_pcs ~bindings ~victim ~crash_pc =
  let ops = program.(victim) in
  let depth = Array.length ops in
  let kind_of pc =
    match ops.(pc) with
    | Model.Internal | Model.Visible | Model.Send _ -> State_graph.Det
    | Model.Nd (c, _) ->
        if List.mem (victim, pc) logged_pcs then State_graph.Det
        else if c = Event.Fixed then State_graph.Fixed_nd
        else State_graph.Transient_nd
    | Model.Receive -> (
        match List.assoc_opt (victim, pc) bindings with
        | Some (Some (src, _)) ->
            if List.mem (victim, pc) logged_pcs then State_graph.Det
            else State_graph.Receive_nd src
        | Some None -> State_graph.Det (* skipped: no message consumed *)
        | None -> State_graph.Receive_nd 0 (* never executed: unknown *))
  in
  (* state [depth] gets a deterministic exit to an absorbing "done"
     state: a finished process recovers by doing nothing, so a crash
     edge out of the terminal state must not make it look like the only
     way forward (that would back-propagate "all exits colored" through
     the whole linear graph) *)
  let edges =
    List.init depth (fun i -> (i, i + 1, kind_of i))
    @ [
        (depth, depth + 2, State_graph.Det);
        (crash_pc, depth + 1, State_graph.Transient_nd);
      ]
  in
  State_graph.make ~nstates:(depth + 3) ~edges ~crash_states:[ depth + 1 ]

(* Map a receive edge back to its trace event: the victim's bound
   receives in pc order line up with its non-ack receive events in
   trace order (the prefix is crash-free, so each pc executed once). *)
let receive_class_fn ~prefix_trace ~bindings ~victim =
  let recvs =
    List.filter
      (fun (e : Event.t) ->
        Event.is_receive e
        && (match e.Event.kind with
           | Event.Receive { tag; _ } -> tag >= 0
           | _ -> false))
      (Trace.events_of prefix_trace victim)
  in
  let bound_pcs =
    List.filter_map
      (fun ((p, pc), b) ->
        if p = victim && b <> None then Some pc else None)
      bindings
    |> List.sort compare
  in
  (* the victim's bound receive pcs in pc order line up one-to-one with
     its non-ack receive events in trace order: the prefix is crash-free,
     so pc order is execution order *)
  let by_pc =
    List.map2 (fun pc e -> (pc, e)) bound_pcs recvs
  in
  fun (e : State_graph.edge) ->
    match List.assoc_opt e.State_graph.src by_pc with
    | Some recv -> Dangerous_paths.receive_class_of_trace prefix_trace recv
    | None -> Event.Transient

let check_lose_work ~program ~(run : Model.run) ~victim ~crash_pc =
  let bindings =
    (* only the bindings visible at the crash instant matter for the
       dangerous-path classification of the pre-crash graph *)
    run.Model.prefix_bindings
  in
  let depth = Array.length program.(victim) in
  let g =
    victim_graph ~program ~logged_pcs:run.Model.logged_pcs ~bindings ~victim
      ~crash_pc
  in
  let receive_class =
    receive_class_fn ~prefix_trace:run.Model.prefix_trace ~bindings ~victim
  in
  let doomed = Dangerous_paths.doomed_states ~receive_class g in
  (* Lose-work: under a transient stop failure no commit of the victim
     before the crash point may sit on a doomed state (the terminal
     no-continuation state excepted); the last such commit reports
     first *)
  List.fold_left
    (fun errors (p, pc) ->
      if p = victim && pc <= crash_pc && pc < depth && doomed.(pc) then
        Printf.sprintf "commit at doomed state %d (crash at %d)" pc crash_pc
        :: errors
      else errors)
    [] run.Model.commit_pcs

(* ---- judging one execution ---------------------------------------------- *)

(* Every oracle on run [r] of fault [crash] at a node whose crash-free
   run is [node]: Save-work on the crash-free prefix trace (the state of
   the world at any crash instant must satisfy the invariant), output
   consistency, and, when [lose_work], the dangerous-path oracle on a
   crashed execution (a [No_crash] or [Lose] run names no crash pc).
   [report oracle detail] files each finding. *)
let judge ~lose_work ~program ~(node : Model.run) crash (r : Model.run) report
    =
  (match crash with
  | Model.No_crash -> (
      match Save_work.violations r.Model.prefix_trace with
      | [] -> ()
      | v :: _ ->
          report Invariant (Format.asprintf "%a" Save_work.pp_violation v))
  | _ -> ());
  (* Loss transparency: retransmission must make a single dropped frame
     unobservable, so the completed run reproduces the no-loss execution
     of the same schedule.  The surviving-lineage reference is the wrong
     yardstick here: a silently skipped receive drops out of it too,
     absolving the very divergence we are after. *)
  let reference =
    match crash with
    | Model.Lose _ -> node.Model.observed
    | _ -> Lazy.force r.Model.reference
  in
  (match Consistency.check ~reference ~observed:r.Model.observed with
  | Consistency.Consistent -> ()
  | v -> report Consistency (Format.asprintf "%a" Consistency.pp_verdict v));
  if lose_work then
    match r.Model.crash_pc with
    | None -> ()
    | Some (victim, crash_pc) ->
        List.iter (report Lose_work)
          (check_lose_work ~program ~run:r ~victim ~crash_pc)

(* Every fault injected at a node with crash-free run [node]: a stop
   crash of each victim; nested failures, where the recovery path itself
   crashes (the victim dies again mid-restore or mid-cascade; the third
   stage, a crash while coordinating the commit round, is [Mid_commit]:
   the round is Vista-atomic); both mid-commit outcomes when the last
   step committed; and the loss of each in-flight message. *)
let faults ~nprocs (node : Model.run) =
  List.init nprocs (fun v -> Model.Stop v)
  @ List.init (2 * nprocs) (fun i ->
        Model.Nested
          {
            victim = i / 2;
            stage = (if i mod 2 = 0 then Model.NRestore else Model.NCascade);
          })
  @ (if node.Model.last_step_committed then
       [
         Model.Mid_commit { landed = true }; Model.Mid_commit { landed = false };
       ]
     else [])
  @ List.map
      (fun (src, dst, seq) -> Model.Lose { src; dst; seq })
      node.Model.pending

(* ---- single-execution checking (shrinker entry point) ------------------- *)

let check_one ?(lose_work = true) ~spec ~defect ~program ~prefix ~crash () =
  let run crash = Model.run ~spec ~defect ~program ~prefix ~crash in
  let node = run Model.No_crash in
  let r = match crash with Model.No_crash -> node | _ -> run crash in
  let vs = ref [] in
  judge ~lose_work ~program ~node crash r (fun v_oracle v_detail ->
      vs := { v_oracle; v_prefix = prefix; v_crash = crash; v_detail } :: !vs);
  List.rev !vs

(* ---- the DFS ------------------------------------------------------------ *)

(* The state a fault's execution starts from, given the node's
   post-prefix state [st], the state [parent] one step earlier and the
   process [last] that step scheduled: a mid-commit crash lands inside
   the node's last step, so it retakes that step from the parent's state
   with the commit trapped; every other fault comes after the prefix. *)
let fault_state ~parent ~last st = function
  | Model.Mid_commit { landed } ->
      let s = Model.fork parent in
      Model.advance s ~trap:landed last;
      s
  | _ -> Model.fork st

let check ?(no_prune = false) ?(lose_work = true) ?(root = []) ?stop_depth
    ~spec ~defect ~program () =
  let nprocs = Array.length program in
  let seen = Hashtbl.create 64 in
  let nodes = ref 0
  and runs = ref 0
  and memo = ref 0
  and steps = ref 0
  and violations = ref [] in
  let exec st crash =
    incr runs;
    let r = Model.finish st crash in
    steps := !steps + r.Model.steps;
    r
  in
  (* [st] is the state after [prefix], executed once; every execution at
     this node and every child forks it.  [parent] is the state one step
     earlier and the process that step scheduled, [None] at the empty
     prefix. *)
  let rec dfs ~parent prefix st =
    incr nodes;
    let pruned =
      (not no_prune)
      &&
      let key = Model.state_key st in
      let hit = Hashtbl.mem seen key in
      if not hit then Hashtbl.add seen key ();
      hit
    in
    if pruned then begin
      (* nothing judges a merged node's crash-free run, so it is counted
         without being executed *)
      incr memo;
      incr runs;
      steps := !steps + Model.crash_free_steps st
    end
    else begin
      let node = exec (Model.fork st) Model.No_crash in
      let judge_run crash r =
        judge ~lose_work ~program ~node crash r (fun v_oracle v_detail ->
            violations :=
              { v_oracle; v_prefix = prefix; v_crash = crash; v_detail }
              :: !violations)
      in
      judge_run Model.No_crash node;
      (match parent with
      | None -> ()
      | Some (parent, last) ->
          List.iter
            (fun crash ->
              judge_run crash (exec (fault_state ~parent ~last st crash) crash))
            (faults ~nprocs node));
      let expand =
        match stop_depth with
        | Some d -> List.length prefix + 1 < d
        | None -> true
      in
      if expand then
        List.iter
          (fun p ->
            let child = Model.fork st in
            Model.advance child p;
            dfs ~parent:(Some (st, p)) (prefix @ [ p ]) child)
          node.Model.next_pids
    end
  in
  (match stop_depth with
  | Some d when List.length root >= d -> ()
  | _ -> (
      let st = Model.start ~spec ~defect ~program in
      match List.rev root with
      | [] -> dfs ~parent:None [] st
      | last :: earlier ->
          List.iter (Model.advance st) (List.rev earlier);
          let child = Model.fork st in
          Model.advance child last;
          dfs ~parent:(Some (st, last)) root child));
  {
    nodes = !nodes;
    runs = !runs;
    memo_hits = !memo;
    steps = !steps;
    violations = List.rev !violations;
  }

(* ---- Exp fan-out -------------------------------------------------------- *)

(* Every forced-first-choices string of the given length. *)
let shards ~nprocs ~shard_depth =
  let rec go d =
    if d = 0 then [ [] ]
    else
      let rest = go (d - 1) in
      List.concat_map (fun s -> List.init nprocs (fun p -> s @ [ p ])) rest
  in
  go shard_depth

open Ft_exp

let violation_to_value v =
  Jstore.Obj
    [
      ("oracle", Jstore.String (oracle_to_string v.v_oracle));
      ("prefix", Jstore.String (prefix_to_string v.v_prefix));
      ("crash", Jstore.String (crash_to_string v.v_crash));
      ("detail", Jstore.String v.v_detail);
    ]

let oracle_of_string = function
  | "save-work" -> Some Invariant
  | "consistency" -> Some Consistency
  | "lose-work" -> Some Lose_work
  | _ -> None

(* Every field must decode: a row read back as clean or smaller than it
   was stored would pass for a verdict it never gave. *)
let violation_of_value v =
  let str k = Option.bind (Jstore.member k v) Jstore.to_str in
  match
    ( Option.bind (str "oracle") oracle_of_string,
      Option.map prefix_of_string (str "prefix"),
      Option.map crash_of_string (str "crash"),
      str "detail" )
  with
  | Some v_oracle, Some (Ok v_prefix), Some (Ok v_crash), Some v_detail ->
      Some { v_oracle; v_prefix; v_crash; v_detail }
  | _ -> None

let stats_to_value s =
  Jstore.Obj
    [
      ("nodes", Jstore.Int s.nodes);
      ("runs", Jstore.Int s.runs);
      ("memo_hits", Jstore.Int s.memo_hits);
      ("steps", Jstore.Int s.steps);
      ("violations", Jstore.List (List.map violation_to_value s.violations));
    ]

let stats_of_value v =
  let int k = Option.bind (Jstore.member k v) Jstore.to_int in
  let violations =
    Option.bind
      (Option.bind (Jstore.member "violations" v) Jstore.to_list)
      (fun l ->
        let vs = List.filter_map violation_of_value l in
        if List.compare_lengths vs l = 0 then Some vs else None)
  in
  match (int "nodes", int "runs", int "memo_hits", int "steps", violations) with
  | Some nodes, Some runs, Some memo_hits, Some steps, Some violations ->
      Some { nodes; runs; memo_hits; steps; violations }
  | _ -> None

let defect_to_string = function
  | Model.Honest -> "honest"
  | Model.Skip_orphan -> "skip-orphan"
  | Model.Drop_log -> "drop-log"
  | Model.Publish_first -> "publish-first"
  | Model.No_retransmit -> "no-retransmit"
  | Model.Drop_dv -> "drop-dependency-vector"
  | Model.No_orphan_kill -> "no-orphan-kill"
  | Model.Resume_from_scratch -> "resume-from-scratch"
  | Model.Gc_live_determinant -> "gc-live-determinant"
  | Model.Commit_budget -> "commit-budget"

let jobs ?(no_prune = false) ?(lose_work = true) ?(shard_depth = 2) ~specs
    ~program () =
  let nprocs = Array.length program in
  if nprocs > max_procs then
    invalid_arg
      (Printf.sprintf "Checker.jobs: %d processes, at most %d have keys"
         nprocs max_procs);
  let digest = String.sub (Model.program_digest program) 0 12 in
  let job_of ~spec ~defect ~tag ~root ~stop_depth =
    (* the defect and the oracle set are part of the result's identity:
       a mutant may reuse an honest protocol's spec name verbatim *)
    let key =
      Printf.sprintf "mc/%s/%s%s/p%dx%d/%s/%s%s" spec.Protocol.spec_name
        (defect_to_string defect)
        (if lose_work then "" else "-nolw")
        nprocs
        (Array.length program.(0))
        digest tag
        (if no_prune then "/noprune" else "")
    in
    Job.make ~key ~seed:0 (fun () ->
        stats_to_value
          (check ~no_prune ~lose_work ~root ?stop_depth ~spec ~defect ~program
             ()))
  in
  List.concat_map
    (fun (spec, defect) ->
      job_of ~spec ~defect ~tag:"shallow" ~root:[]
        ~stop_depth:(Some shard_depth)
      :: List.map
           (fun s ->
             job_of ~spec ~defect
               ~tag:("shard-" ^ prefix_to_string s)
               ~root:s ~stop_depth:None)
           (shards ~nprocs ~shard_depth))
    specs
