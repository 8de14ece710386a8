(** The execution engine — now a thin facade over a 1-tenant
    {!Scheduler}.  The scheduler's [step] is one iteration of the loop
    that used to live here, so this facade performs the byte-identical
    sequence of machine, kernel, checkpointer and RNG operations the
    monolithic engine did; the golden tests pin that.

    Fault injectors ({!Ft_faults}) plug in through the [on_execute]
    machine hook, [record_activation], and the [on_replay] callback
    (recurring faults re-arm after every restore). *)

include Run_types

let default_config = Scheduler.default_config

type t = Scheduler.t

let create ?(cfg = default_config) ~kernel ~programs () =
  Scheduler.create ~tenants:[| (cfg, kernel, programs) |] ()

let machine t pid = Scheduler.machine t ~tid:0 ~pid
let checkpointer t = Scheduler.checkpointer t ~tid:0
let set_on_replay t f = Scheduler.set_on_replay t ~tid:0 f
let record_activation t pid = Scheduler.record_activation t ~tid:0 pid
let activation_recorded t = Scheduler.activation_recorded t ~tid:0
let run t = (Scheduler.run t).(0)

(* Convenience: build, run, return. *)
let execute ?(cfg = default_config) ~kernel ~programs () =
  let t = create ~cfg ~kernel ~programs () in
  (t, run t)
