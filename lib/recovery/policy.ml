type action =
  | Replay
  | Deep_rollback of int
  | Perturbed_replay of { salt : int }
  | Give_up

type t = {
  l0_attempts : int;
  l1_attempts : int;
  l1_depth : int;
  l2_attempts : int;
}

(* [generic]: two generic replays, then Recovery_failed.  The engine's
   legacy path is this ladder with [l0_attempts = max_recovery_attempts]. *)
let generic = { l0_attempts = 2; l1_attempts = 0; l1_depth = 1; l2_attempts = 0 }
let deep = { generic with l1_attempts = 2; l1_depth = 2 }
let full = { deep with l2_attempts = 3 }

let by_name = function
  | "generic" -> Some generic
  | "deep" -> Some deep
  | "full" -> Some full
  | _ -> None

let name t =
  if t = generic then "generic"
  else if t = deep then "deep"
  else if t = full then "full"
  else
    Printf.sprintf "l0:%d,l1:%dx%d,l2:%d" t.l0_attempts t.l1_attempts
      t.l1_depth t.l2_attempts

let decide t ~attempt =
  if attempt <= t.l0_attempts then Replay
  else if attempt <= t.l0_attempts + t.l1_attempts then Deep_rollback t.l1_depth
  else if attempt <= t.l0_attempts + t.l1_attempts + t.l2_attempts then
    (* A fresh salt per attempt: each perturbed replay explores a
       different environment, not the same dodge twice. *)
    Perturbed_replay { salt = attempt - t.l0_attempts - t.l1_attempts }
  else Give_up

let rung = function
  | Replay -> 0
  | Deep_rollback _ -> 1
  | Perturbed_replay _ -> 2
  | Give_up -> 3

let max_attempts t = t.l0_attempts + t.l1_attempts + t.l2_attempts
