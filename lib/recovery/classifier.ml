type verdict = Benign | Transient | Heisenbug | Bohrbug | Sticky

type t = {
  mutable crashes : int;
  mutable last : (int * int) option;  (* salt, icount of previous crash *)
  mutable pair : bool;  (* consecutive same-salt same-icount crashes seen *)
  mutable rescued : bool;
  mutable rescue_rung : int;
}

let create () =
  { crashes = 0; last = None; pair = false; rescued = false; rescue_rung = -1 }

let note_crash t ~salt ~icount =
  t.crashes <- t.crashes + 1;
  (match t.last with
  | Some (s, i) when s = salt && i = icount -> t.pair <- true
  | _ -> ());
  t.last <- Some (salt, icount)

(* [rescue_rung] is the HIGHEST rung whose replay went on to make
   progress, not the first: a run that limps through L0 once but only
   completes after a perturbed L2 replay was rescued by the
   perturbation, and the verdict must say so. *)
let note_progress t ~rung =
  if t.crashes > 0 then begin
    t.rescued <- true;
    if rung > t.rescue_rung then t.rescue_rung <- rung
  end

let same_icount_pair t = t.pair

let classify t =
  if t.crashes = 0 then Benign
  else if t.rescued && t.rescue_rung >= 2 then
    (* Only a perturbed environment let it through: the manifestation
       was environment-dependent even if identical-seed replays looked
       deterministic. *)
    Heisenbug
  else if t.pair then Bohrbug
  else if t.rescued then if t.crashes = 1 then Transient else Heisenbug
  else Sticky
