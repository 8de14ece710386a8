(** Append-only results store: one JSONL file per sweep, flushed row by
    row, reloaded on startup so interrupted sweeps resume instead of
    redoing completed work.  Failed rows are stored too, and a later row
    for the same key+seed replaces them. *)

type status = Completed | Failed of string

type record = {
  key : string;
  seed : int;
  status : status;
  value : Jstore.value;  (** [Null] for failed jobs *)
  duration_s : float;
}

type t

val load : ?fresh:bool -> dir:string -> sweep:string -> unit -> t
(** Opens (creating [dir] if needed) [dir/sweep.jsonl] and indexes its
    rows by key+seed, the last row winning.  [fresh] ignores existing
    contents and truncates the file on first append.  Torn or malformed
    lines are skipped. *)

val path : t -> string
val find : t -> key:string -> seed:int -> record option
val size : t -> int
val records : t -> record list
(** All records, unordered. *)

val add : t -> record -> unit
(** Indexes the record and appends-and-flushes its row.  Thread-safe. *)

val close : t -> unit
