(* Greedy counterexample minimization: repeatedly apply the cheapest
   simplification that keeps a violation of the same oracle alive, until
   none applies.  Everything is re-checked through the real executor
   ([Checker.check_one]), so the result is a true repro by construction. *)

open Ft_core

type result = {
  s_prefix : int list;
  s_crash : Model.crash;
  s_program : Model.program;
  s_oracle : Checker.oracle;
  s_detail : string;
  s_attempts : int;
}

let copy_program p = Array.map Array.copy p

(* Drop element [i] of a list. *)
let drop_nth i l = List.filteri (fun j _ -> j <> i) l

let take n l = List.filteri (fun j _ -> j < n) l

let minimize ?(lose_work = true) ~spec ~defect ~program
    (v : Checker.violation) =
  let target = v.Checker.v_oracle in
  let attempts = ref 0 in
  let refails prefix crash prog =
    incr attempts;
    List.exists
      (fun (x : Checker.violation) -> x.Checker.v_oracle = target)
      (Checker.check_one ~lose_work ~spec ~defect ~program:prog ~prefix ~crash
         ())
  in
  if not (refails v.Checker.v_prefix v.Checker.v_crash program) then
    (* does not reproduce under this configuration: return unshrunk *)
    {
      s_prefix = v.Checker.v_prefix;
      s_crash = v.Checker.v_crash;
      s_program = program;
      s_oracle = target;
      s_detail = v.Checker.v_detail;
      s_attempts = !attempts;
    }
  else begin
    let prefix = ref v.Checker.v_prefix in
    let crash = ref v.Checker.v_crash in
    let prog = ref (copy_program program) in
    let improved = ref true in
    while !improved do
      improved := false;
      (* 1. simplify the crash: no crash at all beats a stop, a stop
         beats a mid-commit, and smaller victim pids are simpler *)
      let crash_candidates =
        match !crash with
        | Model.No_crash -> []
        | Model.Stop v -> Model.No_crash :: List.init v (fun i -> Model.Stop i)
        | Model.Mid_commit _ ->
            Model.No_crash
            :: List.init (Array.length !prog) (fun i -> Model.Stop i)
        | Model.Lose _ -> [ Model.No_crash ]
        | Model.Nested { victim = v; _ } ->
            (* a plain stop of the same victim beats a nested crash *)
            Model.No_crash :: Model.Stop v
            :: List.init v (fun i -> Model.Stop i)
      in
      (match
         List.find_opt (fun c -> refails !prefix c !prog) crash_candidates
       with
      | Some c ->
          crash := c;
          improved := true
      | None -> ());
      (* 2. truncate the schedule: shortest failing prefix of the
         current one (a single check per length, shortest first) *)
      let n = List.length !prefix in
      (let len = ref 0 in
       let found = ref false in
       while (not !found) && !len < n do
         let cand = take !len !prefix in
         if refails cand !crash !prog then begin
           prefix := cand;
           found := true;
           improved := true
         end
         else incr len
       done);
      (* 3. drop any single interior step *)
      (let i = ref 0 in
       while !i < List.length !prefix do
         let cand = drop_nth !i !prefix in
         if refails cand !crash !prog then begin
           prefix := cand;
           improved := true
           (* same index now names the next step; do not advance *)
         end
         else incr i
       done);
      (* 4. weaken program operations to [Internal] *)
      Array.iteri
        (fun p ops ->
          Array.iteri
            (fun pc op ->
              if op <> Model.Internal then begin
                let cand = copy_program !prog in
                cand.(p).(pc) <- Model.Internal;
                if refails !prefix !crash cand then begin
                  prog := cand;
                  improved := true
                end
              end)
            ops)
        !prog
    done;
    let detail =
      match
        List.find_opt
          (fun (x : Checker.violation) -> x.Checker.v_oracle = target)
          (Checker.check_one ~lose_work ~spec ~defect ~program:!prog
             ~prefix:!prefix ~crash:!crash ())
      with
      | Some x -> x.Checker.v_detail
      | None -> v.Checker.v_detail (* unreachable: the loop invariant *)
    in
    {
      s_prefix = !prefix;
      s_crash = !crash;
      s_program = !prog;
      s_oracle = target;
      s_detail = detail;
      s_attempts = !attempts;
    }
  end

let to_script ~spec ~defect (r : result) =
  (* In a locally-minimal prefix every step makes progress (a blocked
     no-op step would have been dropped by pass 3), so the unconditional
     pc advance of [Script.of_prefix] matches the executor's. *)
  let steps = Script.of_prefix r.s_program r.s_prefix in
  let crash_line =
    match r.s_crash with
    | Model.No_crash -> "# crash: none (violation on the crash-free prefix)"
    | Model.Stop v -> Printf.sprintf "# crash: stop p%d after the last step" v
    | Model.Mid_commit { landed } ->
        Printf.sprintf "# crash: mid-commit in the last step (commit %s)"
          (if landed then "landed" else "lost")
    | Model.Lose { src; dst; seq } ->
        Printf.sprintf
          "# fault: network drops message %d->%d seq %d after the last step"
          src dst seq
    | Model.Nested { victim; stage } ->
        Printf.sprintf
          "# crash: stop p%d after the last step, then again %s" victim
          (match stage with
          | Model.NRestore -> "mid-restore"
          | Model.NCascade -> "mid-cascade")
  in
  let defect_line =
    match defect with
    | Model.Honest -> []
    | d -> [ Printf.sprintf "# defect: %s" (Checker.defect_to_string d) ]
  in
  String.concat "\n"
    ((Printf.sprintf "# protocol: %s" spec.Protocol.spec_name :: defect_line)
    @ [
        Printf.sprintf "# oracle: %s" (Checker.oracle_to_string r.s_oracle);
        crash_line;
        Printf.sprintf "# detail: %s" r.s_detail;
        Script.steps_to_string steps;
      ])
