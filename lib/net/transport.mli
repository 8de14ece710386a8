(** A seeded, policy-driven unreliable channel with the reliability
    machinery layered back on top: per-link sequence numbers, in-order
    delivery through a reassembly buffer, cumulative acks over the
    (equally unreliable) reverse path, and per-frame retransmission with
    jittered exponential backoff and a bounded retry budget.  A frame
    that exhausts its budget latches the link {e failed}; the engine
    surfaces that as [Net_unreachable] instead of blocking forever.

    Payloads are abstract ['a]: the kernel hands its message record in
    at {!send} and receives it back, exactly once and in per-link order,
    through the [deliver] callback during {!pump}.  All randomness comes
    from the transport's own stream seeded at {!create}, so attaching a
    transport never perturbs the kernel's RNG. *)

type stats = {
  sends : int;  (** distinct payloads accepted from the kernel *)
  transmissions : int;  (** frames put on the wire, retransmits included *)
  retransmits : int;
  deliveries : int;  (** payloads handed up, in order, exactly once *)
  dup_frames : int;  (** frames discarded as already-delivered *)
  dropped : int;  (** frames lost to the loss rate *)
  cut : int;  (** frames swallowed by a partition *)
  acks : int;  (** acks sent (some of which the wire loses) *)
  gave_up : int;  (** frames abandoned after the retry budget *)
}

type 'a t

val create :
  ?policy:(int -> int -> Policy.t) ->
  ?rto_max_ns:int ->
  ?max_retries:int ->
  seed:int ->
  nprocs:int ->
  latency_ns:int ->
  jitter_ns:int ->
  deliver:(at:int -> src:int -> dst:int -> 'a -> unit) ->
  unit ->
  'a t
(** [policy src dst] is the fault policy of the [src]->[dst] direction
    (default: every link reliable).  The initial retransmission timeout
    is [4 * (latency_ns + jitter_ns)], floor 1µs; successive retries
    double it up to [rto_max_ns] (default 50ms), with 25% jitter.  After
    [max_retries] (default 16) attempts a frame is abandoned and its
    link latched failed. *)

val send : 'a t -> now:int -> src:int -> dst:int -> 'a -> unit
(** Accept a payload for transmission at simulated time [now]. *)

val pump : 'a t -> now:int -> unit
(** Fire every queued event (arrival, ack, retry) with timestamp
    [<= max now watermark], in (time, insertion) order, invoking
    [deliver] for payloads that complete in-order.  Monotone: pumping
    never rewinds the watermark. *)

val pending_in : 'a t -> lo:int -> hi:int -> bool
(** Some queued event (arrival, ack or retry) has its sending endpoint
    in [lo, hi) — one tenant's slice of a shared transport.  Links never
    cross tenants, so this is exactly the tenant's own traffic;
    [~lo:0 ~hi:nprocs] asks about the whole transport. *)

val next_event_in : 'a t -> lo:int -> hi:int -> int option
(** Timestamp of the earliest queued event whose sending endpoint lies
    in [lo, hi): how far the engine must advance simulated time for the
    network to make progress when every process of that range is
    blocked. *)

val any_failed_in : 'a t -> lo:int -> hi:int -> bool
(** Some link whose source lies in [lo, hi) has exhausted a retry
    budget. *)

val reachable : 'a t -> src:int -> dst:int -> now:int -> bool
(** No active partition cuts [src]->[dst] at [now] and the link has not
    exhausted a retry budget.  The 2PC coordinator's prepare check. *)

val link_failed : 'a t -> src:int -> dst:int -> bool

val in_flight : 'a t -> int
(** Frames accepted but neither delivered nor abandoned yet. *)

val stats : 'a t -> stats
