(** Line-oriented JSON-ish values: the wire format of the results store.

    One value per line; hand-rolled emitter and parser, no external JSON
    dependency.  The grammar is JSON plus the bare tokens [nan], [inf]
    and [-inf] so every float round-trips. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** Single-line rendering; [to_string v |> of_string = Ok v] for every
    value (floats round-trip bit-exactly, NaN excepted by [=]). *)

val of_string : string -> (value, string) result

val member : string -> value -> value option
val to_int : value -> int option

val to_str : value -> string option
val to_list : value -> value list option

val get_int : ?default:int -> string -> value -> int
(** [get_int k obj] is field [k] of [obj] as an int, or [default]. *)

val get_float : ?default:float -> string -> value -> float
val get_str : ?default:string -> string -> value -> string
