(** Consistent recovery (paper §2.3).

    Recovery is consistent iff there exists a complete failure-free
    execution whose sequence of visible events is equivalent to the
    sequence actually output in the failed-and-recovered run.  Two
    sequences are equivalent when the only events in the observed sequence
    [v] that differ from the reference [v'] are {e repeats} of earlier
    events from [v] (duplicates are tolerated because exactly-once output
    is unattainable; users can overlook duplicated output). *)

type verdict =
  | Consistent
  | Extra of { position : int; value : int }
      (* observed a value that is neither expected next nor a repeat *)
  | Truncated of { missing : int }
      (* the observed run stopped short of a complete reference run *)

(* Greedy scan: each observed value either matches the next reference
   value, or is a repeat of an already-output value (duplicate after a
   rollback).  The whole reference must be consumed: consistent recovery
   is defined over complete executions (the no-orphan constraint).  The
   values already output are the consumed prefix of the reference, so
   the set of repeats is built only at the first mismatch: a crash-free
   run never builds it. *)
module Seen = Hashtbl.Make (Int)

let check ~reference ~observed =
  let rec repeats seen pos (obs : int list) (ref_ : int list) =
    match (obs, ref_) with
    | [], [] -> Consistent
    | [], r -> Truncated { missing = List.length r }
    | o :: obs', r :: ref' when o = r ->
        Seen.replace seen o ();
        repeats seen (pos + 1) obs' ref'
    | o :: obs', _ when Seen.mem seen o -> repeats seen (pos + 1) obs' ref_
    | o :: _, _ -> Extra { position = pos; value = o }
  in
  (* [pos] values matched so far: [reference]'s first [pos] *)
  let rec matching pos (obs : int list) (ref_ : int list) =
    match (obs, ref_) with
    | [], [] -> Consistent
    | o :: obs', r :: ref' when o = r -> matching (pos + 1) obs' ref'
    | _ ->
        let seen = Seen.create 64 in
        let rec output n = function
          | v :: rest when n > 0 ->
              Seen.replace seen v ();
              output (n - 1) rest
          | _ -> ()
        in
        output pos reference;
        repeats seen pos obs ref_
  in
  matching 0 observed reference

let is_consistent ~reference ~observed =
  match check ~reference ~observed with Consistent -> true | _ -> false

let pp_verdict fmt = function
  | Consistent -> Format.pp_print_string fmt "consistent"
  | Extra { position; value } ->
      Format.fprintf fmt "inconsistent: value %d at position %d is neither \
                          expected nor a duplicate" value position
  | Truncated { missing } ->
      Format.fprintf fmt "incomplete: %d visible events missing" missing
