(** xpilot: a distributed real-time game (paper §3, Figure 8c): one
    server and three clients in lock-step 15 fps frames.  Sustainable
    frame rate is the reported metric — commit latency eats the frame
    budget, which is how DC-disk drops below 15 fps. *)

type params = { frames : int }

val default_params : params
val small_params : params

val nprocs : int
val heap_words : int

val workload : ?params:params -> unit -> Workload.t

val fps : Ft_runtime.Engine.result -> float
(** Rendered frames per simulated second, from the slowest client. *)
