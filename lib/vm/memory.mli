(** Paged heap memory with dirty-page tracking: the substrate for
    Discount Checking's copy-on-write incremental checkpoints (paper §3).
    Pages are allocated on first write; untouched pages read 0. *)

type t

exception Out_of_bounds of int

val create : ?page_size:int -> size:int -> unit -> t
(** [page_size] must be a power of two (default 64 words). *)

val size : t -> int
val page_size : t -> int

val read : t -> int -> int
(** Raises {!Out_of_bounds}: the crash event of a wild load. *)

val write : t -> int -> int -> unit
(** Marks the containing page dirty.  Raises {!Out_of_bounds}. *)

val pick_live_word : t -> Random.State.t -> int
(** The address an injected bit flip corrupts: half the time (one
    [Random.State.bool]) within the low 4096 words, where programs keep
    their metadata, and preferably a non-zero word — a first
    [Random.State.int] draw, then up to 64 probes for a non-zero one.
    Both the application and the kernel injectors draw through it, so a
    seed names the same word in either. *)

val dirty_pages : t -> int list
(** Pages written since the last {!clear_dirty}, ascending. *)

val dirty_count : t -> int
val clear_dirty : t -> unit

val blit_page_into : t -> int -> int array -> unit
(** [blit_page_into t p dst] copies page [p] into [dst] (which must hold
    at least [page_size] words) without allocating. *)

val snapshot : t -> int array
val restore : t -> int array -> unit
(** Also clears dirty tracking.  The image must hold exactly {!size}
    words ([Invalid_argument] otherwise). *)
