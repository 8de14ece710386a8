(** Vista-style lightweight transactions over a {!Rio} region.

    Vista provides atomic, persistent transactions without redo logging
    or system calls: updates to the mapped region are trapped and their
    before-images appended to a persistent undo log; commit atomically
    discards the undo log; recovery (or abort) applies it backwards
    (paper §3; Lowell & Chen, SOSP'97).

    The undo log lives IN the region, laid out in words, so the
    persisted words are the sole input to recovery: {!recover} rebuilds
    the record list from region contents and replays it, and works just
    as well on a freshly created [t] over an old region (a process that
    lost all its heap state in a crash).  A crash between any two word
    writes leaves the region recoverable to its state at the last
    commit — the property Discount Checking's checkpoints rely on, and
    one the torture harness ({!Ft_harness.Torture}) checks exhaustively.

    Region layout (data area first, log area after it):

    {v
      [0, data_words)                the transactional data area
      [data_words, size)             the log area:
        log+0   record-area words in use   (the atomic commit point)
        log+1   commits counter
        log+2   aborts counter
        log+3.. records, each  [off; len; before_0 .. before_{len-1}]
    v}

    Crash-safety rests on write ordering, checked by the torture
    harness:
    - a record's body is written BEFORE the header word publishes it, so
      a crash mid-append leaves an unpublished (ignored) record;
    - the data words are only updated after their record is published,
      so a torn data write is always covered by a complete before-image;
    - commit transactionally bumps the commits counter (its before-image
      is logged) and then discards the log with the single word write
      [count := 0] — the atomic commit point;
    - recovery is idempotent: replaying before-images rewrites the same
      words, the aborts counter is derived from post-replay contents,
      and the log is only discarded last, so a crash during recovery
      just makes the next recovery start over. *)

type t = {
  region : Rio.t;
  data_words : int;  (* log area starts here *)
  mutable in_tx : bool;
  mutable defect : defect option;
}

and defect = Publish_header_first

(* Header word offsets within the log area. *)
let hdr_count = 0
let hdr_commits = 1
let hdr_aborts = 2
let hdr_words = 3

let log_overhead_words = hdr_words

(* Words of log a transactional write of [len] words consumes. *)
let record_words ~len = len + 2

let create ?(data_words = -1) region =
  let size = Rio.size region in
  let data_words = if data_words < 0 then size / 2 else data_words in
  if data_words < 0 || data_words + hdr_words > size then
    invalid_arg "Vista.create: no room for the log area";
  { region; data_words; in_tx = false; defect = None }

let region t = t.region
let data_words t = t.data_words
let inject_defect t d = t.defect <- d

let log_base t = t.data_words
let rec_base t = t.data_words + hdr_words

let commits t = Rio.read t.region (log_base t + hdr_commits)
let aborts t = Rio.read t.region (log_base t + hdr_aborts)
let log_words t = Rio.read t.region (log_base t + hdr_count)

let begin_tx t =
  if t.in_tx then invalid_arg "Vista.begin_tx: transaction already open";
  t.in_tx <- true

let require_tx t name =
  if not t.in_tx then invalid_arg (name ^ ": no open transaction")

(* Append one undo record for the [len] region words at [off]: body
   first (the before-image is copied region-to-region, no intermediate
   array), then the single header write that publishes it.  (The
   [Publish_header_first] defect deliberately inverts that order so
   tests can prove the torture harness catches the resulting
   unrecoverable crash points.) *)
let append_record t ~off ~len =
  let count = log_words t in
  let base = rec_base t + count in
  if base + record_words ~len > Rio.size t.region then
    invalid_arg "Vista: undo log overflow";
  let header_first =
    match t.defect with Some Publish_header_first -> true | None -> false
  in
  let header = log_base t + hdr_count
  and published = count + record_words ~len in
  if header_first then Rio.write t.region header published;
  Rio.write t.region base off;
  Rio.write t.region (base + 1) len;
  Rio.copy_within t.region ~src_off:off ~dst_off:(base + 2) ~len;
  if not header_first then Rio.write t.region header published

(* Log one run of a transactional write, then update its data words:
   the record is always published before the data words change, so a
   torn data write is covered by a complete before-image. *)
let write_run t ~off src ~spos ~len =
  append_record t ~off ~len;
  Rio.blit_sub_in t.region ~off src ~spos ~len

(* Diff mode: changed words only, coalesced into runs.  Two changed
   words whose gap of unchanged words is <= [diff_gap] share one run:
   a run merge trades the gap's extra logged-and-rewritten words
   against a saved 2-word record header, so small gaps amortize. *)
let diff_gap = 2

(* The fold below from the run [s, e) found so far: word [e] is
   unchanged, or [e = len]. *)
let rec fold_run t ~off src ~spos ~len f s e acc =
  let r = t.region in
  let c = Rio.scan r ~off src ~spos ~len ~from:e ~differ:true in
  if c < len && c - e <= diff_gap then
    fold_run t ~off src ~spos ~len f s
      (Rio.scan r ~off src ~spos ~len ~from:(c + 1) ~differ:false)
      acc
  else
    let acc = f s (e - s) acc in
    if c = len then acc
    else
      fold_run t ~off src ~spos ~len f c
        (Rio.scan r ~off src ~spos ~len ~from:(c + 1) ~differ:false)
        acc

(* Fold [f start len] over the coalesced changed runs of [src] against
   the region, in ascending order, with [start] relative to [spos].  The
   compares run inside {!Rio.scan}, and no run list is built.  [f] may
   write its run: a run's words all lie below the next run's start,
   which is found before [f] is called, so the fold still finds the
   runs it would have found without the writes. *)
let fold_runs t ~off src ~spos ~len f acc =
  let r = t.region in
  let s = Rio.scan r ~off src ~spos ~len ~from:0 ~differ:true in
  if s = len then acc
  else
    fold_run t ~off src ~spos ~len f s
      (Rio.scan r ~off src ~spos ~len ~from:(s + 1) ~differ:false)
      acc

(* Transactional write of a sub-range: log the before-image(s), then
   update.  In diff mode the incoming words are compared against the
   region and only the changed runs are logged and stored — unless the
   per-run record headers would cost more log words than one
   whole-range record, in which case the whole-range path is taken, so
   a diff-mode write NEVER consumes more log than [record_words ~len]
   (the {!Ft_runtime.Checkpointer.log_area_words} capacity bound holds
   by construction).  One fold counts the diff's log words, a second
   writes its runs. *)
let write_sub ?(diff = false) t ~off ~src ~spos ~len =
  require_tx t "Vista.write_range";
  if off < 0 || len < 0 || off + len > t.data_words then
    invalid_arg "Vista.write_range: outside the data area";
  if spos < 0 || spos + len > Array.length src then
    invalid_arg "Vista.write_range: bad source range";
  if not diff then write_run t ~off src ~spos ~len
  else
    let diff_log_words =
      fold_runs t ~off src ~spos ~len
        (fun _ rlen acc -> acc + record_words ~len:rlen) 0
    in
    if diff_log_words = 0 then ()  (* nothing changed: no record, no write *)
    else if diff_log_words >= record_words ~len then
      write_run t ~off src ~spos ~len
    else
      fold_runs t ~off src ~spos ~len
        (fun start rlen () ->
          write_run t ~off:(off + start) src ~spos:(spos + start) ~len:rlen)
        ()

let write_range ?diff t ~off src =
  write_sub ?diff t ~off ~src ~spos:0 ~len:(Array.length src)

let write_word t ~off v = write_range t ~off [| v |]

(* Atomic commit: bump the commits counter under the protection of the
   undo log, then discard the log.  The single [count := 0] word write
   is the commit point: crash before it and recovery rolls everything
   (counter included) back; crash after it and the transaction — counter
   included — is durable. *)
let commit t =
  require_tx t "Vista.commit";
  let c = commits t in
  append_record t ~off:(log_base t + hdr_commits) ~len:1;
  Rio.write t.region (log_base t + hdr_commits) (c + 1);
  Rio.write t.region (log_base t + hdr_count) 0;
  t.in_tx <- false

(* Rebuild the record list from the published log words, newest first.
   Only the words below the header count exist; a record partially
   appended at crash time was never published and is invisible here. *)
let records_newest_first t =
  let count = log_words t in
  let base = rec_base t in
  let rec scan pos acc =
    if pos = count then acc
    else begin
      let off = Rio.read t.region (base + pos) in
      let len = Rio.read t.region (base + pos + 1) in
      if len < 0 || pos + record_words ~len > count then
        invalid_arg "Vista: corrupt undo log";
      scan (pos + record_words ~len) ((off, base + pos + 2, len) :: acc)
    end
  in
  scan 0 []

(* Replay the published log backwards and then discard it.  Idempotent
   until the final [count := 0]: before-image writes are absolute, and
   the aborts counter is set from its post-replay value rather than
   read-modify-written, so a crash anywhere inside recovery leaves a
   state from which recovery simply runs again. *)
let rollback t =
  if log_words t > 0 then begin
    List.iter
      (fun (off, body, len) ->
        Rio.copy_within t.region ~src_off:body ~dst_off:off ~len)
      (records_newest_first t);
    Rio.write t.region (log_base t + hdr_aborts) (aborts t + 1);
    Rio.write t.region (log_base t + hdr_count) 0
  end

(* Abort: apply before-images newest-first.  An empty transaction still
   counts as an abort. *)
let abort t =
  require_tx t "Vista.abort";
  if log_words t > 0 then rollback t
  else Rio.write t.region (log_base t + hdr_aborts) (aborts t + 1);
  t.in_tx <- false

(* Crash recovery: a pure function of region contents.  A published log
   means a transaction (possibly a commit) was torn; replay it.  An
   empty log means the last commit — or nothing at all — completed. *)
let recover t =
  rollback t;
  t.in_tx <- false

let in_tx t = t.in_tx
let undo_records t = List.length (records_newest_first t)
