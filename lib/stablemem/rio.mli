(** A Rio-style reliable memory region (paper §3): word-addressable
    memory that survives simulated process and OS crashes, with write
    accounting for the commit cost model and a word-granular write hook
    for crash-point fault injection.  Pages are allocated lazily: a page
    costs memory only once something is stored into it. *)

exception Crash_point of int
(** Raised by a write hook to model a crash after the carried number of
    word writes have persisted; the intercepted write is NOT performed. *)

type t

val create : size:int -> t
val size : t -> int

val set_on_write : t -> (int -> int -> unit) option -> unit
(** Install (or clear) the write hook.  The hook sees (offset, value)
    before each word is persisted — including every word of a
    {!blit_in} — and may raise (e.g. {!Crash_point}) to abort that word
    and everything after it: a mid-blit raise leaves a torn blit, which
    is exactly the failure the torture harness explores. *)

val read : t -> int -> int

val write : t -> int -> int -> unit

val blit_in : t -> off:int -> int array -> unit
(** Bulk copy into the region (e.g. one checkpoint page).  With a hook
    installed the copy is word by word through the hook path; with no
    hook it is one int-typed copy loop per page with identical persisted
    words and identical {!words_written} accounting. *)

val blit_sub_in : t -> off:int -> int array -> spos:int -> len:int -> unit
(** [blit_sub_in t ~off src ~spos ~len] copies
    [src.(spos .. spos+len-1)] into the region at [off] — {!blit_in}
    without materializing the sub-array. *)

val copy_within : t -> src_off:int -> dst_off:int -> len:int -> unit
(** Region-to-region copy (before-images into the undo log, log replay
    back into the data area) through the same fast-path/hooked-path
    split as {!blit_sub_in}.  The ranges must be disjoint. *)

val sub : t -> off:int -> len:int -> int array
(** A fresh copy of [len] region words from [off]. *)

val scan :
  t -> off:int -> int array -> spos:int -> len:int -> from:int ->
  differ:bool -> int
(** [scan t ~off src ~spos ~len ~from ~differ] is the least [i] in
    [[from, len)] at which region word [off + i] differs from
    [src.(spos + i)] (with [~differ:true]) or equals it (with
    [~differ:false]), or [len] if there is none.  A read: no hook, no
    accounting.  Raises [Invalid_argument] if either range is out of
    bounds. *)

val poke : t -> int -> int -> unit
(** Out-of-band mutation for fault injectors (cold-region bit flips):
    bypasses the hook and the write accounting, because it models
    corruption rather than a write the program performed. *)

val words_written : t -> int
(** Lifetime count of words written, for cost accounting. *)
