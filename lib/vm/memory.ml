(** Paged heap memory with dirty-page tracking.

    Discount Checking traps updates with copy-on-write and logs
    before-images of updated regions (paper §3).  We track the set of
    pages written since the last checkpoint; the checkpointer copies
    exactly those pages and charges a per-page trap-and-copy cost, just
    as Vista's COW on the process address space would.

    Pages are allocated on first write.  Until then a page slot points at
    a shared all-zero page that is never written, so a heap costs one
    page-table word per page plus the pages the program has stored
    into. *)

type t = {
  pages : int array array;      (* [zero] until the page's first write *)
  zero : int array;             (* shared, never written *)
  size : int;                   (* words: a whole number of pages *)
  page_size : int;              (* words per page; power of two *)
  page_shift : int;             (* log2 page_size: page = addr lsr shift *)
  page_mask : int;              (* page_size - 1: offset = addr land mask *)
  dirty : bool array;           (* per page, since last clear *)
  mutable dirty_list : int list;
      (* the pages [dirty] marks, newest first: a commit and a clear cost
         what the program dirtied, not the heap's page count *)
}

exception Out_of_bounds of int

(* Zero page for every page size up to its length; a larger page size
   gets a zero page of its own per heap. *)
let shared_zero = Array.make 256 0

let create ?(page_size = 64) ~size () =
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Memory.create: page_size must be a power of two";
  let npages = (size + page_size - 1) / page_size in
  let page_shift =
    let s = ref 0 in
    while 1 lsl !s < page_size do incr s done;
    !s
  in
  let zero =
    if page_size <= Array.length shared_zero then shared_zero
    else Array.make page_size 0
  in
  {
    pages = Array.make npages zero;
    zero;
    size = npages * page_size;
    page_size;
    page_shift;
    page_mask = page_size - 1;
    dirty = Array.make (max 1 npages) false;
    dirty_list = [];
  }

let size t = t.size
let page_size t = t.page_size

(* Page [p], given storage of its own on its first store. *)
let own_page t p =
  let pg = Array.unsafe_get t.pages p in
  if pg != t.zero then pg
  else begin
    let pg = Array.make t.page_size 0 in
    Array.unsafe_set t.pages p pg;
    pg
  end

(* The explicit range check subsumes the bounds check the safe array
   operations would repeat, so the accesses below are unsafe_. *)
let read t addr =
  let page = addr lsr t.page_shift in
  if addr < 0 || page >= Array.length t.pages then raise (Out_of_bounds addr);
  Array.unsafe_get (Array.unsafe_get t.pages page) (addr land t.page_mask)

(* A dirty page is always an owned one (a write owns its page before
   marking it, and [restore] clears every mark), so only the first write
   to a page since the last [clear_dirty] checks for the zero page. *)
let write t addr v =
  let page = addr lsr t.page_shift in
  if addr < 0 || page >= Array.length t.pages then raise (Out_of_bounds addr);
  if not (Array.unsafe_get t.dirty page) then begin
    ignore (own_page t page);
    Array.unsafe_set t.dirty page true;
    t.dirty_list <- page :: t.dirty_list
  end;
  Array.unsafe_set (Array.unsafe_get t.pages page) (addr land t.page_mask) v

(* The word an injected bit flip corrupts, drawn from [rng]: half the
   time from the low 4096 words, where programs keep their metadata
   (headers, tables, allocators), and live data first: up to 64 probes
   for a non-zero word, else the first draw. *)
let pick_live_word t rng =
  let region = if Random.State.bool rng then min t.size 4096 else t.size in
  let rec hunt tries best =
    if tries = 0 then best
    else
      let a = Random.State.int rng region in
      if read t a <> 0 then a else hunt (tries - 1) best
  in
  hunt 64 (Random.State.int rng region)

(* Raw poke that bypasses bounds/accounting policy decisions is not
   offered: fault injectors flip bits through [write] so the corruption
   is captured by checkpoints exactly as a real stray store would be. *)

let dirty_pages t = List.sort Int.compare t.dirty_list

let dirty_count t = List.length t.dirty_list

let clear_dirty t =
  List.iter (fun p -> Array.unsafe_set t.dirty p false) t.dirty_list;
  t.dirty_list <- []

(* Copy-free page access: the checkpointer's commit path reuses one
   scratch buffer per slot instead of allocating a page array per dirty
   page per checkpoint.  An int-typed loop, not [Array.blit]: the buffer
   is a long-lived (promoted) array, and a blit into one pays the write
   barrier per word. *)
let blit_page_into t p dst =
  if Array.length dst < t.page_size then
    invalid_arg "Memory.blit_page_into: buffer smaller than a page";
  let pg : int array = t.pages.(p) in
  for i = 0 to t.page_size - 1 do
    Array.unsafe_set dst i (Array.unsafe_get pg i)
  done

let snapshot t =
  let words = Array.make t.size 0 in
  Array.iteri
    (fun p pg ->
      if pg != t.zero then Array.blit pg 0 words (p * t.page_size) t.page_size)
    t.pages;
  words

(* Page by page: a page that is all zeros in the image goes back to the
   shared zero page, so restoring a mostly-zero image leaves the heap
   sparse whatever it held before. *)
let restore t words =
  if Array.length words <> t.size then
    invalid_arg "Memory.restore: image size differs from the heap";
  for p = 0 to Array.length t.pages - 1 do
    let base = p * t.page_size in
    let i = ref 0 in
    while !i < t.page_size && Array.unsafe_get words (base + !i) = 0 do
      incr i
    done;
    if !i = t.page_size then t.pages.(p) <- t.zero
    else Array.blit words base (own_page t p) 0 t.page_size
  done;
  clear_dirty t
