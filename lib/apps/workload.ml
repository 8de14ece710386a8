(** Common workload plumbing: the app descriptor consumed by the
    experiment harness, and seeded input-script generators. *)

type t = {
  name : string;
  nprocs : int;
  programs : Ft_vm.Instr.t array array;
  configure : Ft_os.Kernel.t -> unit;  (* input scripts, timers *)
  heap_words : int;
}

let make ~name ~nprocs ~programs ~configure ~heap_words () =
  { name; nprocs; programs; configure; heap_words }

(* Weighted choice: [(weight, value); ...] with a seeded RNG. *)
let weighted rng choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  let roll = Random.State.int rng total in
  let rec go acc = function
    | [] -> invalid_arg "Workload.weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if roll < acc + w then v else go (acc + w) rest
  in
  go 0 choices

let engine_config t (base : Ft_runtime.Engine.config) =
  {
    base with
    Ft_runtime.Engine.heap_words = t.heap_words;
    stack_words = 4_096;
    deadline_ns = None;
  }

let kernel ?(seed = 42) t =
  let k = Ft_os.Kernel.create ~seed ~nprocs:t.nprocs () in
  t.configure k;
  k
