(** A Rio-style reliable memory region.

    The Rio file cache makes ordinary DRAM survive operating-system
    crashes, so that committing to it costs memory-copy time instead of a
    synchronous disk write (paper §3).  We model a region as a
    word-addressable persistent array: simulated process and OS crashes
    never clear it (the recovery engine only ever resets machines), and
    every write is accounted so commit costs can be charged.

    The region is paged and lazy.  Every page slot starts out pointing at
    one shared all-zero page, so a region costs one page-table word per
    {!page_words} words until it is written; the first store into a page
    (a write, a blit, a [copy_within] or a [poke]) gives that slot its own
    page.  The shared page is never written, so untouched pages of every
    region read 0 from it.

    Every mutation goes through a word-granular path guarded by an
    optional write hook, so fault injectors ({!Ft_faults.Mem_injector})
    can observe the exact persisted-write sequence, crash the simulation
    between any two word writes ({!Crash_point}), and tear a {!blit_in}
    partway through — the substrate the crash-point torture harness
    drives.  When NO hook is installed (every failure-free run), the bulk
    operations take a fast path: one int-typed copy loop per page plus
    one accounting update, with the exact same persisted words and the
    exact same {!words_written} count as the hooked word-by-word path.
    (A loop, not [Array.blit]: pages are long-lived arrays, and a blit
    into one pays the write barrier per word.) *)

exception Crash_point of int
(** Raised by a write hook to model a crash after the carried number of
    word writes have persisted; the write the hook intercepted is NOT
    performed. *)

let page_bits = 6
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Shared by the untouched pages of every region; never written. *)
let zero_page = Array.make page_words 0

type t = {
  pages : int array array;  (* [zero_page] until the page's first store *)
  size : int;
  mutable words_written : int;  (* lifetime accounting for cost models *)
  mutable on_write : (int -> int -> unit) option;
      (* called with (offset, value) BEFORE each word is persisted; a
         raising hook (e.g. [Crash_point]) aborts that word and all
         later ones *)
}

let create ~size =
  if size < 0 then invalid_arg "Rio.create: negative size";
  { pages = Array.make ((size + page_mask) lsr page_bits) zero_page; size;
    words_written = 0; on_write = None }

let size t = t.size

let set_on_write t hook = t.on_write <- hook

(* Page [p], given storage of its own on its first store. *)
let own_page t p =
  let pg = Array.unsafe_get t.pages p in
  if pg != zero_page then pg
  else begin
    let pg = Array.make page_words 0 in
    Array.unsafe_set t.pages p pg;
    pg
  end

(* Bounds-unchecked read for word-by-word paths whose range was
   validated once up front. *)
let unsafe_read t off =
  Array.unsafe_get (Array.unsafe_get t.pages (off lsr page_bits))
    (off land page_mask)

let read t off =
  if off < 0 || off >= t.size then invalid_arg "Rio.read: out of range";
  unsafe_read t off

let store t off v =
  Array.unsafe_set (own_page t (off lsr page_bits)) (off land page_mask) v

(* The single persisted-write path: hook, then store, then account. *)
let write_word t off v =
  (match t.on_write with Some f -> f off v | None -> ());
  store t off v;
  t.words_written <- t.words_written + 1

let write t off v =
  if off < 0 || off >= t.size then invalid_arg "Rio.write: out of range";
  write_word t off v

(* Words from [pos] up to the next page boundary of region offset [a]
   or of [b] (whichever is nearer), capped at [len]: the next piece of a
   copy that stays within one page on both sides. *)
let piece ~pos ~len a b =
  Int.min (len - pos)
    (page_words - Int.max (a land page_mask) (b land page_mask))

(* [dst.(dpos .. dpos+n-1) <- src.(spos .. spos+n-1)] for int arrays,
   with no write barrier.  Callers keep both ranges in bounds. *)
let copy_ints (src : int array) spos (dst : int array) dpos n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
  done

(* Bulk copy of [src.(spos .. spos+len-1)] into the region.  Hooked:
   word by word, so a crash point can land between any two words and
   leave a torn blit.  Unhooked: one copy loop per page — the same
   result and the same [words_written] accounting, without the per-word
   closure check. *)
let blit_sub_in t ~off src ~spos ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg "Rio.blit_in: out of range";
  if spos < 0 || spos + len > Array.length src then
    invalid_arg "Rio.blit_in: bad source range";
  match t.on_write with
  | None ->
      let pos = ref 0 in
      while !pos < len do
        let d = off + !pos in
        let n = piece ~pos:!pos ~len d d in
        copy_ints src (spos + !pos) (own_page t (d lsr page_bits))
          (d land page_mask) n;
        pos := !pos + n
      done;
      t.words_written <- t.words_written + len
  | Some _ ->
      for i = 0 to len - 1 do
        write_word t (off + i) src.(spos + i)
      done

let blit_in t ~off src = blit_sub_in t ~off src ~spos:0 ~len:(Array.length src)

(* Region-to-region copy (undo-log before-images, log replay): the
   source words are region words, so no intermediate array is needed.
   Same fast-path/hooked-path split as {!blit_sub_in}.  The two ranges
   must be disjoint for the paths to agree (the hooked path copies word
   by word, ascending); every caller satisfies this, since the log and
   data areas never overlap. *)
let copy_within t ~src_off ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > t.size || dst_off + len > t.size
  then invalid_arg "Rio.copy_within: out of range";
  match t.on_write with
  | None ->
      let pos = ref 0 in
      while !pos < len do
        let s = src_off + !pos and d = dst_off + !pos in
        let n = piece ~pos:!pos ~len s d in
        let dst = own_page t (d lsr page_bits) in
        copy_ints t.pages.(s lsr page_bits) (s land page_mask) dst
          (d land page_mask) n;
        pos := !pos + n
      done;
      t.words_written <- t.words_written + len
  | Some _ ->
      for i = 0 to len - 1 do
        write_word t (dst_off + i) (unsafe_read t (src_off + i))
      done

(* Bulk copy out of the region (restoring a checkpoint). *)
let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg "Rio.sub: out of range";
  let dst = Array.make len 0 in
  let pos = ref 0 in
  while !pos < len do
    let s = off + !pos in
    let n = piece ~pos:!pos ~len s s in
    copy_ints t.pages.(s lsr page_bits) (s land page_mask) dst !pos n;
    pos := !pos + n
  done;
  dst

(* The least [i] in [from, len) at which region word [off + i] differs
   from [src.(spos + i)] ([~differ:true]) or equals it ([~differ:false]);
   [len] if there is none.  One loop per page, with no call per word:
   Vista's diff mode finds its changed runs with it. *)
let scan t ~off src ~spos ~len ~from ~differ =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg "Rio.scan: out of range";
  if spos < 0 || spos + len > Array.length src then
    invalid_arg "Rio.scan: bad source range";
  let src : int array = src in
  let i = ref (Int.max 0 from) and found = ref false in
  while (not !found) && !i < len do
    let d = off + !i in
    let pg : int array = Array.unsafe_get t.pages (d lsr page_bits) in
    let stop = Int.min len (!i + page_words - (d land page_mask)) in
    (* [pg.(k + shift)] is region word [off + k] on this page *)
    let shift = (d land page_mask) - !i and j = ref !i in
    if differ then
      while !j < stop
            && Array.unsafe_get pg (!j + shift)
               = Array.unsafe_get src (spos + !j)
      do incr j done
    else
      while !j < stop
            && Array.unsafe_get pg (!j + shift)
               <> Array.unsafe_get src (spos + !j)
      do incr j done;
    found := !j < stop;
    i := !j
  done;
  !i

(* Out-of-band mutation for fault injectors (e.g. cold-region bit
   flips): bypasses the hook and the write accounting, because it models
   corruption, not a write the program performed. *)
let poke t off v =
  if off < 0 || off >= t.size then invalid_arg "Rio.poke: out of range";
  store t off v

let words_written t = t.words_written
