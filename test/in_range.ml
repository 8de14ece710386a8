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
