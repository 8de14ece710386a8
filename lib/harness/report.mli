(** ASCII table/figure rendering for experiment output. *)

val table : headers:string list -> rows:string list list -> string
(** First column left-aligned, the rest right-aligned. *)

val pct : float -> string
val pct1 : float -> string
val fps : float -> string
val section : string -> string
