(* Integer arbitraries that shrink inside their range.  QCheck's
   [int_range lo hi] (and [lo -- hi]) shrinks with [Shrink.int], which
   heads toward 0 and so leaves a range with a nonzero lower bound:
   [(2 -- 30)] shrinks to 1, a repro the property never generates and
   may fail for a different reason.  [int lo hi] draws exactly what
   [lo -- hi] draws (each seed generates the same cases) and keeps only
   the shrink candidates within [lo, hi]. *)

let int lo hi =
  QCheck.add_shrink_invariant
    (fun x -> lo <= x && x <= hi)
    (QCheck.int_range lo hi)

(* [list lo hi a] draws what [list_of_size (Gen.int_range lo hi) a]
   draws and shrinks only to lists of [lo] to [hi] elements: QCheck's
   list shrinker halves toward the empty list, so a property over
   non-empty lists would report [[]]. *)
let list lo hi a =
  QCheck.add_shrink_invariant
    (fun l ->
      let n = List.length l in
      lo <= n && n <= hi)
    (QCheck.list_of_size (QCheck.Gen.int_range lo hi) a)
