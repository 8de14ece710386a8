(* Replayable scripts over the model's operations.  One step per line,
   "p<pid> <op>": the interchange language between the shrinker's
   counterexamples and [Model.run], so anything the checker prints can
   be replayed under the protocol and defect that produced it. *)

open Ft_core

type step = { pid : int; op : Model.op }

let step_to_string { pid; op } =
  let op =
    match op with
    | Model.Internal -> "internal"
    | Model.Nd (c, loggable) ->
        Printf.sprintf "nd %s%s"
          (match c with Event.Transient -> "transient" | Event.Fixed -> "fixed")
          (if loggable then " loggable" else "")
    | Model.Visible -> "visible 0"
    | Model.Send dest -> Printf.sprintf "send %d" dest
    | Model.Receive -> "recv"
  in
  Printf.sprintf "p%d %s" pid op

let steps_to_string steps =
  String.concat "" (List.map (fun s -> step_to_string s ^ "\n") steps)

let op_of_tokens = function
  | [ "internal" ] -> Ok Model.Internal
  | "nd" :: cls :: rest -> (
      let loggable =
        match rest with
        | [] -> Ok false
        | [ "loggable" ] -> Ok true
        | _ -> Error "trailing tokens after nd class"
      in
      match (cls, loggable) with
      | _, Error e -> Error e
      | "transient", Ok l -> Ok (Model.Nd (Event.Transient, l))
      | "fixed", Ok l -> Ok (Model.Nd (Event.Fixed, l))
      | c, _ -> Error (Printf.sprintf "unknown nd class %S" c))
  | [ "visible"; v ] -> (
      match int_of_string_opt v with
      | Some _ -> Ok Model.Visible
      | None -> Error ("bad visible value " ^ v))
  | [ "send"; d ] -> (
      match int_of_string_opt d with
      | Some dest -> Ok (Model.Send dest)
      | None -> Error ("bad send destination " ^ d))
  | [ "recv" ] -> Ok Model.Receive
  | toks -> Error ("unknown step: p? " ^ String.concat " " toks)

let step_of_line line =
  let proc, toks =
    match String.split_on_char ' ' line with
    | proc :: toks -> (proc, List.filter (( <> ) "") toks)
    | [] -> ("", [])
  in
  let pid =
    if String.length proc >= 2 && proc.[0] = 'p' then
      int_of_string_opt (String.sub proc 1 (String.length proc - 1))
    else None
  in
  match pid with
  | None -> Error "expected \"p<pid> <op>\""
  | Some pid -> Result.map (fun op -> { pid; op }) (op_of_tokens toks)

let steps_of_string text =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
        else
          match step_of_line line with
          | Ok s -> go (s :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 (String.split_on_char '\n' text)

let of_prefix (program : Model.program) prefix =
  let nprocs = Array.length program in
  let pcs = Array.make nprocs 0 in
  List.filter_map
    (fun pid ->
      if pid < 0 || pid >= nprocs || pcs.(pid) >= Array.length program.(pid)
      then None
      else begin
        let pc = pcs.(pid) in
        pcs.(pid) <- pc + 1;
        Some { pid; op = program.(pid).(pc) }
      end)
    prefix

let to_program ~nprocs steps =
  let ops = Array.make nprocs [] in
  let check p =
    if p < 0 || p >= nprocs then
      invalid_arg (Printf.sprintf "Script.to_program: pid %d of %d" p nprocs)
  in
  List.iter
    (fun { pid; op } ->
      check pid;
      (match op with Model.Send dest -> check dest | _ -> ());
      ops.(pid) <- op :: ops.(pid))
    steps;
  (Array.map (fun l -> Array.of_list (List.rev l)) ops,
   List.map (fun s -> s.pid) steps)
