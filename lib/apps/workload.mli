(** The workload descriptor consumed by the experiment harness, plus
    seeded input-script helpers. *)

type t = {
  name : string;
  nprocs : int;
  programs : Ft_vm.Instr.t array array;  (** compiled code, per process *)
  configure : Ft_os.Kernel.t -> unit;  (** input scripts, timer signals *)
  heap_words : int;
}

val make :
  name:string ->
  nprocs:int ->
  programs:Ft_vm.Instr.t array array ->
  configure:(Ft_os.Kernel.t -> unit) ->
  heap_words:int ->
  unit ->
  t

val weighted : Random.State.t -> (int * 'a) list -> 'a
(** Weighted choice from [(weight, value)] pairs. *)

val engine_config : t -> Ft_runtime.Engine.config -> Ft_runtime.Engine.config
(** Apply the workload's sizing to a config: its heap, a 4096-word
    stack and no deadline. *)

val kernel : ?seed:int -> t -> Ft_os.Kernel.t
(** A kernel sized and configured for this workload. *)
