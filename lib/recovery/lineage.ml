type verdict = Benign | Transient | Heisenbug | Bohrbug | Sticky

type t = {
  policy : Policy.t;
  l0_attempts : int;
  mutable attempts : int;  (* consecutive crashes since the last progress *)
  mutable restore_point : int;
  mutable restore_base : int;  (* the restored snapshot's own icount *)
  mutable crash_bar : int;
  mutable last_rung : int;
  mutable peak_rung : int;
  mutable salt : int;
  mutable crashes : int;
  mutable last_salt : int;  (* of the previous crash, if [crashes > 0] *)
  mutable last_offset : int;
  mutable pair : bool;  (* consecutive same-salt same-offset crashes seen *)
  mutable rescue_rung : int;  (* -1 until a rescue *)
  mutable out_seq : int;
  mutable committed_out_seq : int;  (* out_seq as of the newest commit *)
  mutable released : int array;
      (* released values, oldest first, kept only when sequenced: the one
         discipline that reads them back *)
  mutable n_released : int;
  mutable mismatches : int;
}

let create policy ~l0_attempts =
  {
    policy;
    l0_attempts;
    attempts = 0;
    restore_point = 0;
    restore_base = 0;
    crash_bar = -1;
    last_rung = 0;
    peak_rung = 0;
    salt = 0;
    crashes = 0;
    last_salt = 0;
    last_offset = 0;
    pair = false;
    rescue_rung = -1;
    out_seq = 0;
    committed_out_seq = 0;
    released = [||];
    n_released = 0;
    mismatches = 0;
  }

let crash t ~icount =
  if icount > t.crash_bar then t.crash_bar <- icount;
  let offset = icount - t.restore_base in
  if t.crashes > 0 && t.last_salt = t.salt && t.last_offset = offset then
    t.pair <- true;
  t.crashes <- t.crashes + 1;
  t.last_salt <- t.salt;
  t.last_offset <- offset

let next_action t =
  t.attempts <- t.attempts + 1;
  let action =
    Policy.decide t.policy ~l0_attempts:t.l0_attempts ~attempt:t.attempts
  in
  (match action with
  | Policy.Give_up -> ()
  | _ ->
      t.last_rung <- Policy.rung action;
      if t.last_rung > t.peak_rung then t.peak_rung <- t.last_rung);
  (match action with Perturbed_replay { salt } -> t.salt <- salt | _ -> ());
  action

let restored ?out_seq t ~icount =
  (match out_seq with Some s -> t.committed_out_seq <- s | None -> ());
  t.restore_base <- icount;
  t.restore_point <- icount + 1;
  t.out_seq <- t.committed_out_seq

(* The HIGHEST rung whose replay went on to make progress, not the
   first: a run that limps through L0 once but only completes after a
   perturbed L2 replay was rescued by the perturbation, and the verdict
   must say so. *)
let note_rescue t =
  if t.crashes > 0 && t.last_rung > t.rescue_rung then
    t.rescue_rung <- t.last_rung

let committed t ~icount =
  t.committed_out_seq <- t.out_seq;
  (* The progress rule: past the restore point, and under a sequenced
     ladder past the crash bar too. *)
  let progress =
    t.attempts > 0
    && icount > t.restore_point
    && ((not t.policy.Policy.sequenced) || icount > t.crash_bar)
  in
  if progress then begin
    note_rescue t;
    t.attempts <- 0
  end;
  progress

let halted t ~icount =
  if t.attempts > 0 && icount > t.restore_point then note_rescue t

let output t v =
  let seq = t.out_seq in
  t.out_seq <- seq + 1;
  if not t.policy.Policy.sequenced then begin
    t.n_released <- t.n_released + 1;
    true
  end
  else if seq < t.n_released then begin
    if t.released.(seq) <> v then t.mismatches <- t.mismatches + 1;
    false
  end
  else begin
    let n = t.n_released in
    if n = Array.length t.released then
      t.released <- Array.append t.released (Array.make (max 8 n) 0);
    t.released.(n) <- v;
    t.n_released <- n + 1;
    true
  end

let restart t = t.attempts <- 0
let out_seq t = t.out_seq
let salt t = t.salt
let peak_rung t = t.peak_rung
let released t = t.n_released
let mismatches t = t.mismatches

let classify t =
  if t.crashes = 0 then Benign
  else if t.rescue_rung >= 2 then
    (* Only a perturbed environment let it through: the manifestation
       was environment-dependent even if identical-seed replays looked
       deterministic. *)
    Heisenbug
  else if t.pair then Bohrbug
  else if t.rescue_rung >= 0 then
    if t.crashes = 1 then Transient else Heisenbug
  else Sticky
