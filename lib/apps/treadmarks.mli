(** TreadMarks: a page-based software DSM with release consistency
    running an N-body computation by direct summation (paper §3,
    Figure 8d).  pid 0 is the manager (home of the master copy) and also
    worker 0; page fetches arrive a word per message (copious receive
    ND); dirty-word diffs are shipped at each barrier, after which every
    cached page is invalidated — making the computation deterministic
    regardless of message timing.  At the shipped sizes every force
    truncates to zero, so the bodies never move; Figure 8d's event mix
    comes from the page traffic, not from the forces. *)

type params = { bodies : int; iters : int }

val default_params : params
val small_params : params

val nprocs : int
val heap_words : int

val program : params:params -> pid:int -> Ft_vm.Asm.program

val workload : ?params:params -> unit -> Workload.t
