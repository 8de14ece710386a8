(** postgres: a relational-database stand-in (paper §4) — a hash-table
    storage engine with chained nodes, a free-list allocator, a
    write-ahead log, and query results as visible output. *)

type params = {
  queries : int;
  keyspace : int;
  interval_ns : int;
  check_every : int;  (** consistency-check cadence, in queries *)
  seed : int;
}

val default_params : params
val small_params : params

val heap_words : int
val wal_file : int

val ack_base : int
(** Driver-mode ack outputs are [ack_base + n] for the 1-based query
    sequence number [n]; disjoint from every organic output value. *)

val program : ?check_every:int -> ?ack:bool -> unit -> Ft_vm.Asm.program
(** [ack] turns on driver mode: every query additionally outputs its
    sequence-numbered acknowledgement — the per-request response the
    serve harness timestamps for latency. *)

val workload :
  ?params:params -> ?ack:bool -> ?open_loop:bool -> unit -> Workload.t
(** [open_loop] switches the query stream from think-time scripted input
    to fixed absolute arrival times ({!Ft_os.Kernel.set_input_absolute}),
    so backlog after a crash appears as request latency instead of
    shifting the schedule. *)
