(** Replayable scripts: a schedule over {!Model} operations in a stable
    one-step-per-line text form.

    A script is how a counterexample leaves the model checker (the
    shrinker prints one) and how it comes back: {!to_program} turns it
    into the [(program, prefix)] pair {!Model.run} executes, so a repro
    replays through the very interpreter that found it, runtime defect
    included.  [steps_of_string (steps_to_string s) = Ok s] for every
    script. *)

type step = { pid : int; op : Model.op }

val step_to_string : step -> string
(** e.g. ["p0 nd transient"], ["p1 send 0"], ["p0 visible 0"],
    ["p1 recv"], ["p0 nd fixed loggable"].  A visible prints the value
    [0]: {!Model} derives visible values from lineage. *)

val steps_to_string : step list -> string

val steps_of_string : string -> (step list, string) result
(** Parses the {!steps_to_string} form; blank lines and [#] comment
    lines are ignored, and the value of [visible <n>] is ignored. *)

val of_prefix : Model.program -> int list -> step list
(** The prefix as a script, resolving each scheduled pid to the op at
    its pc.  Every scheduled pid advances its pc, which matches the
    executor on any prefix whose steps all make progress (a checker
    prefix, or a locally-minimal shrunk one); out-of-range pids and
    finished processes are skipped. *)

val to_program : nprocs:int -> step list -> Model.program * int list
(** The inverse of {!of_prefix}: each process's ops in script order, and
    the schedule that runs them.  Raises [Invalid_argument] on a pid or
    send destination outside [0, nprocs). *)
