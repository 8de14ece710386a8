(** The application fault model (paper §4.1, after Chandra's fault study).

    Faults are injected by running a version of the application with
    changes that simulate programming errors: overwriting random data in
    the stack or heap, changing the destination register of an
    instruction, neglecting to initialize a variable, deleting a branch,
    deleting a random instruction, and off-by-one errors in conditions
    like [>=] and [<]. *)

type t =
  | Stack_bit_flip
  | Heap_bit_flip
  | Destination_reg
  | Initialization
  | Delete_branch
  | Delete_instruction
  | Off_by_one

let all =
  [ Stack_bit_flip; Heap_bit_flip; Destination_reg; Initialization;
    Delete_branch; Delete_instruction; Off_by_one ]

(* Position in [all]: the campaigns fold it into their trial seeds. *)
let index t =
  let rec go i = function f :: tl when f <> t -> go (i + 1) tl | _ -> i in
  go 0 all

let to_string = function
  | Stack_bit_flip -> "stack bit flip"
  | Heap_bit_flip -> "heap bit flip"
  | Destination_reg -> "destination reg"
  | Initialization -> "initialization"
  | Delete_branch -> "delete branch"
  | Delete_instruction -> "delete instruction"
  | Off_by_one -> "off by one"
