(** The seven fault types of the paper's software fault model (§4.1). *)

type t =
  | Stack_bit_flip
  | Heap_bit_flip
  | Destination_reg
  | Initialization
  | Delete_branch
  | Delete_instruction
  | Off_by_one

val all : t list

val index : t -> int
(** Position in {!all}. *)

val to_string : t -> string
