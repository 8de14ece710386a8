type action =
  | Replay
  | Deep_rollback of int
  | Perturbed_replay of { salt : int }
  | Give_up

type t = {
  l1_attempts : int;
  l1_depth : int;
  l2_attempts : int;
  sequenced : bool;
}

(* [legacy]: L0 alone, duplicates allowed, every commit past the restore
   point counts as progress.  [generic] is the same ladder with
   sequenced egress and the crash-bar progress rule. *)
let legacy = { l1_attempts = 0; l1_depth = 1; l2_attempts = 0; sequenced = false }
let generic = { legacy with sequenced = true }
let deep = { generic with l1_attempts = 2; l1_depth = 2 }
let full = { deep with l2_attempts = 3 }

let by_name = function
  | "generic" -> Some generic
  | "deep" -> Some deep
  | "full" -> Some full
  | _ -> None

let decide t ~l0_attempts ~attempt =
  let l1_end = l0_attempts + t.l1_attempts in
  if attempt <= l0_attempts then Replay
  else if attempt <= l1_end then Deep_rollback t.l1_depth
  else if attempt <= l1_end + t.l2_attempts then
    (* A fresh salt per attempt: each perturbed replay explores a
       different environment, not the same dodge twice. *)
    Perturbed_replay { salt = attempt - l1_end }
  else Give_up

let rung = function
  | Replay -> 0
  | Deep_rollback _ -> 1
  | Perturbed_replay _ -> 2
  | Give_up -> 3
