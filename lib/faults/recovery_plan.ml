(* Nested-failure plans: which entries into which recovery stages get an
   injected crash.  Occurrence-indexed rather than time-indexed (unlike
   {!Kill_plan}) because recovery stages are rare, short and bursty — a
   wall-clock schedule would almost always miss them.  Deterministic
   given (seed, tid), like every other injector, so campaigns replay. *)

type stage = Ft_runtime.Scheduler.recovery_stage =
  | Mid_restore
  | Mid_cascade
  | Mid_round

let stages = [| Mid_restore; Mid_cascade; Mid_round |]

(* Draw a Poisson(rate) count by inversion: the number of unit-rate
   exponential gaps fitting in [rate] (same draw idiom as
   {!Kill_plan.poisson}, on an abstract horizon). *)
let poisson_count ~rate rng =
  if rate <= 0. then 0
  else begin
    let rec go at n =
      let u = Random.State.float rng 1.0 in
      let at = at +. (-.log (1. -. u)) in
      if at > rate then n else go at (n + 1)
    in
    go 0. 0
  end

let tenant ~rate ~seed tid =
  let rng = Random.State.make [| seed; tid; 0x7ec2 |] in
  let n = poisson_count ~rate rng in
  List.init n (fun _ ->
      let stage = stages.(Random.State.int rng (Array.length stages)) in
      let occ = 1 + Random.State.int rng 4 in
      (stage, occ))
