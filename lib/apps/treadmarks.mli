(** TreadMarks: a page-based software DSM with release consistency
    running a Barnes-Hut N-body computation (paper §3, Figure 8d).
    pid 0 is the manager (home of the master copy) and also worker 0;
    page fetches arrive a word per message (copious receive ND);
    dirty-word diffs are shipped at each barrier, after which every
    cached page is invalidated — making the computation deterministic
    regardless of message timing. *)

(** [Direct] is O(N^2) direct summation; [Tree] is the real Barnes-Hut
    algorithm: a quadtree built into DSM shared memory by the manager
    each iteration and traversed by every worker with the theta opening
    criterion. *)
type algorithm = Direct | Tree

type params = {
  bodies : int;
  iters : int;
  seed : int;
  algorithm : algorithm;
}

val default_params : params
val small_params : params

val tree_params : params
(** A Barnes-Hut (quadtree) configuration. *)

val nprocs : int
val heap_words : int

val program : params:params -> pid:int -> Ft_vm.Asm.program

val workload : ?params:params -> unit -> Workload.t
