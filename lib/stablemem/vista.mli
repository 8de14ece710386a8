(** Vista-style lightweight transactions over a {!Rio} region (paper §3):
    updates are trapped with before-images appended to an undo log that
    is itself persisted in the region (word-count header, word-laid-out
    records), commit atomically discards the log, and abort — or crash
    recovery — rebuilds the records from region words and applies them
    backwards.  Recovery is a pure function of region contents: it works
    on a freshly created [t] over an old region. *)

type t

type defect = Publish_header_first
    (** Deliberately publish a record in the log header before its body
        is written — the write-ordering bug the torture harness must
        catch.  Test-only. *)

val create : ?data_words:int -> Rio.t -> t
(** [create ~data_words region] manages [region] with transactional data
    in [\[0, data_words)] and the undo-log area (header + records) in
    [\[data_words, size)].  Default [data_words]: half the region.  The
    log area needs {!log_overhead_words} words of header plus, worst
    case, [len + 2] words per transactional write of [len] words.
    Raises [Invalid_argument] if the header does not fit. *)

val region : t -> Rio.t
val data_words : t -> int

val inject_defect : t -> defect option -> unit
(** Arm (or clear) a deliberate crash-safety defect; see {!defect}. *)

val log_overhead_words : int
(** Words of log-area header (count, commits, aborts). *)

val record_words : len:int -> int
(** Log words consumed by one transactional write of [len] words. *)

val begin_tx : t -> unit
(** Raises [Invalid_argument] if a transaction is already open. *)

val write_range : ?diff:bool -> t -> off:int -> int array -> unit
(** Transactional write: appends the before-image record to the
    persisted log (body first, then the publishing header write), then
    updates the data words.  Raises [Invalid_argument] outside the data
    area or on log overflow.

    With [~diff:true] the incoming words are first compared against the
    region: only the changed words, coalesced into runs (two changed
    words whose gap of unchanged words is at most two share a run), are
    logged and stored, in ascending order.  An unchanged range appends no record
    and writes no data word.  Whenever the per-run record headers would
    cost more log words than one whole-range record, the whole-range
    path is taken instead — so a diff-mode write never consumes more
    than [record_words ~len] log words, and restore-equivalence with
    the whole-range path holds at every crash point (checked by the
    torture-style qcheck properties in [test_stablemem]). *)

val write_sub :
  ?diff:bool -> t -> off:int -> src:int array -> spos:int -> len:int -> unit
(** {!write_range} over [src.(spos .. spos+len-1)] without materializing
    the sub-array (the checkpointer's allocation-free commit path). *)

val write_word : t -> off:int -> int -> unit

val commit : t -> unit
(** Transactionally bump the commits counter, then atomically discard
    the undo log (the single header word write is the commit point). *)

val abort : t -> unit
(** Apply before-images newest-first and discard the log. *)

val recover : t -> unit
(** Crash recovery, a pure function of region contents: rebuild the
    published records from the log words, replay them backwards, bump
    the persisted aborts counter and discard the log; a no-op when the
    log is empty.  Idempotent under crashes during recovery itself. *)

val in_tx : t -> bool

val undo_records : t -> int
(** Number of published records currently in the log. *)

val log_words : t -> int
(** Record-area words currently published (the header count word). *)

val commits : t -> int
(** The persisted commits counter. *)

val aborts : t -> int
(** The persisted aborts counter. *)
