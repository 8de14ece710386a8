(** ASCII table/figure rendering for experiment output. *)

val pad : int -> string -> string
val pad_left : int -> string -> string

val table : headers:string list -> rows:string list list -> string
(** First column left-aligned, the rest right-aligned. *)

val pct : float -> string
val pct1 : float -> string
val fps : float -> string
val section : string -> string

val merge_bench :
  path:string -> (string * Ft_exp.Jstore.value) list -> (unit, string) result
(** Merges [kvs] into the flat BENCH_RESULTS.json object at [path],
    overwriting shared keys and keeping every other one; a missing file
    starts as [{"schema": "ft-bench/1"}].  An existing file that is not
    a JSON object is refused with an [Error] naming it and left
    untouched; an I/O failure is an [Error] too. *)
