(* The transport as it was before its event queue became a binary heap:
   the same file with the queue a [Map] keyed by (time, insertion id)
   and the backoff computed with a float power.  test_net's "heap
   order" property drives it beside {!Ft_net.Transport} on the same
   scripts; every delivery, ranged next-event answer and statistic
   must agree. *)

module Policy = Ft_net.Policy

(* The unreliable channel, and the machinery that survives it.

    The transport sits between kernel send and kernel receive.  Each
    ordered pair of processes is a {e link} with its own sequence-number
    space.  A send assigns the next link sequence number and transmits a
    frame; the link's {!Policy} decides whether the wire loses it, delays
    it, delivers it twice, or — during a partition window — swallows it
    outright.

    Reliability is layered back on top exactly the way a real stack does
    it:

    - the receiver side of a link delivers payloads {e in order} through
      a reassembly buffer keyed by sequence number, dropping frames it
      has already delivered (so wire-level duplicates and retransmission
      duplicates never reach the kernel twice);
    - every data arrival is answered with a {e cumulative ack}, itself
      sent over the unreliable reverse direction;
    - the sender retransmits unacknowledged frames on a per-frame timer
      with exponential backoff (jittered, capped), and after
      [max_retries] attempts declares the link {e failed} — the signal
      the engine turns into a [Net_unreachable] outcome instead of
      blocking forever.

    Everything is simulated time: events (arrivals, acks, retries) live
    in a priority queue keyed by (time, insertion id) and fire when the
    engine {!pump}s the transport past their timestamps.  All
    randomness comes from the transport's own seeded stream, never the
    kernel's, so attaching a reliable transport leaves existing runs
    byte-identical.  The payload type is abstract: the kernel hands us
    its message record and gets it back at delivery time. *)

type stats = {
  sends : int;          (* distinct payloads accepted from the kernel *)
  transmissions : int;  (* frames put on the wire, retransmits included *)
  retransmits : int;
  deliveries : int;     (* payloads handed up, in order, exactly once *)
  dup_frames : int;     (* frames discarded as already-delivered *)
  dropped : int;        (* frames lost to the loss rate *)
  cut : int;            (* frames swallowed by a partition *)
  acks : int;           (* acks sent (some of which the wire loses) *)
  gave_up : int;        (* frames abandoned after the retry budget *)
}

type 'a frame = { payload : 'a; mutable attempts : int }

(* One direction of one link.  Sender-side state: [next_seq], [acked],
   [outstanding].  Receiver-side state: [delivered], the [ooo]
   reassembly buffer.  [l_failed] latches when any frame exhausts its
   retry budget. *)
type 'a link = {
  l_src : int;
  l_dst : int;
  mutable next_seq : int;
  mutable acked : int;       (* highest cumulatively acked sequence *)
  outstanding : (int, 'a frame) Hashtbl.t;
  mutable delivered : int;   (* highest sequence delivered in order *)
  ooo : (int, 'a) Hashtbl.t; (* arrived out of order, awaiting the gap *)
  mutable l_failed : bool;
}

type 'a event =
  | Data of { e_src : int; e_dst : int; seq : int; payload : 'a }
  | Ack of { e_src : int; e_dst : int; upto : int }
      (* cumulative ack for link (e_src, e_dst), arriving back at e_src *)
  | Retry of { e_src : int; e_dst : int; seq : int }

module Q = Map.Make (struct
  type t = int * int (* time, insertion id: deterministic tie-break *)

  let compare ((a, i) : t) ((b, j) : t) =
    let c = Int.compare a b in
    if c <> 0 then c else Int.compare i j
end)

type 'a t = {
  nprocs : int;
  rng : Random.State.t;
  policy : int -> int -> Policy.t;  (* src dst *)
  latency_ns : int;
  jitter_ns : int;
  rto_ns : int;
  rto_max_ns : int;
  deliver : at:int -> src:int -> dst:int -> 'a -> unit;
  links : (int, 'a link) Hashtbl.t;  (* keyed by [src * nprocs + dst] *)
  mutable queue : 'a event Q.t;
  mutable earliest : int;  (* time of the queue's minimum; [max_int] if empty *)
  mutable next_id : int;
  mutable watermark : int;  (* pump has processed everything <= this *)
  mutable s_sends : int;
  mutable s_transmissions : int;
  mutable s_retransmits : int;
  mutable s_deliveries : int;
  mutable s_dup_frames : int;
  mutable s_dropped : int;
  mutable s_cut : int;
  mutable s_acks : int;
  mutable s_gave_up : int;
}

(* Backoff cap and retry budget: each frame is retried at most
   [max_retries] times, at most [rto_max_ns] apart (unless the initial
   timeout is larger). *)
let rto_max_ns = 50_000_000
let max_retries = 16

let create ?(policy = fun _ _ -> Policy.reliable) ~seed ~nprocs ~latency_ns
    ~jitter_ns ~deliver () =
  let rto_ns = max 1_000 (4 * (latency_ns + jitter_ns)) in
  {
    nprocs;
    rng = Random.State.make [| seed; 0x6e_65_74 |];
    policy;
    latency_ns;
    jitter_ns;
    rto_ns;
    rto_max_ns = max rto_ns rto_max_ns;
    deliver;
    links = Hashtbl.create 16;
    queue = Q.empty;
    earliest = max_int;
    next_id = 0;
    watermark = 0;
    s_sends = 0;
    s_transmissions = 0;
    s_retransmits = 0;
    s_deliveries = 0;
    s_dup_frames = 0;
    s_dropped = 0;
    s_cut = 0;
    s_acks = 0;
    s_gave_up = 0;
  }

let stats t =
  {
    sends = t.s_sends;
    transmissions = t.s_transmissions;
    retransmits = t.s_retransmits;
    deliveries = t.s_deliveries;
    dup_frames = t.s_dup_frames;
    dropped = t.s_dropped;
    cut = t.s_cut;
    acks = t.s_acks;
    gave_up = t.s_gave_up;
  }

let link_key t ~src ~dst = (src * t.nprocs) + dst

let link t ~src ~dst =
  let key = link_key t ~src ~dst in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          l_src = src;
          l_dst = dst;
          next_seq = 0;
          acked = -1;
          outstanding = Hashtbl.create 8;
          delivered = -1;
          ooo = Hashtbl.create 8;
          l_failed = false;
        }
      in
      Hashtbl.add t.links key l;
      l

let schedule t ~at ev =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.queue <- Q.add (at, id) ev t.queue;
  if at < t.earliest then t.earliest <- at

let flip t p = p > 0. && Random.State.float t.rng 1.0 < p
let jitter_draw t j = if j <= 0 then 0 else Random.State.int t.rng j

(* Exponential backoff (doubling) with a cap and 25% jitter: the classic
   shape — quick first retry, then spread out, never past [rto_max_ns]. *)
let rto_after t attempts =
  let base =
    let scaled = float_of_int t.rto_ns *. (2.0 ** float_of_int attempts) in
    if scaled >= float_of_int t.rto_max_ns then t.rto_max_ns
    else int_of_float scaled
  in
  base + jitter_draw t (max 1 (base / 4))

(* One wire attempt for frame [seq] of link [l].  The policy may cut,
   drop, delay, reorder (an extra delay past the frame's successors) or
   duplicate it; survivors become [Data] arrival events. *)
let transmit t ~now ~(l : _ link) ~seq payload =
  t.s_transmissions <- t.s_transmissions + 1;
  let pol = t.policy l.l_src l.l_dst in
  if Policy.partitioned pol ~src:l.l_src ~dst:l.l_dst ~now then
    t.s_cut <- t.s_cut + 1
  else if flip t pol.Policy.drop then t.s_dropped <- t.s_dropped + 1
  else begin
    let delay = t.latency_ns + jitter_draw t t.jitter_ns in
    let delay =
      if flip t pol.Policy.reorder then
        delay + max 1 pol.Policy.reorder_ns
        + jitter_draw t (max 1 pol.Policy.reorder_ns)
      else delay
    in
    let arrival = now + delay in
    schedule t ~at:arrival
      (Data { e_src = l.l_src; e_dst = l.l_dst; seq; payload });
    if flip t pol.Policy.duplicate then
      schedule t
        ~at:(arrival + 1 + jitter_draw t (max 1 t.latency_ns))
        (Data { e_src = l.l_src; e_dst = l.l_dst; seq; payload })
  end

let send t ~now ~src ~dst payload =
  if src < 0 || src >= t.nprocs || dst < 0 || dst >= t.nprocs then
    invalid_arg "Transport.send: pid out of range";
  let l = link t ~src ~dst in
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  t.s_sends <- t.s_sends + 1;
  Hashtbl.replace l.outstanding seq { payload; attempts = 0 };
  transmit t ~now ~l ~seq payload;
  schedule t ~at:(now + rto_after t 0) (Retry { e_src = src; e_dst = dst; seq })

(* The cumulative ack rides the reverse direction of the link and is
   just as mortal as data: partitions and the loss rate apply.  It is
   not retransmitted — the next data arrival re-acks, and sender-side
   retries cover the gap. *)
let send_ack t ~now ~(l : _ link) =
  t.s_acks <- t.s_acks + 1;
  let pol = t.policy l.l_dst l.l_src in
  if Policy.partitioned pol ~src:l.l_dst ~dst:l.l_src ~now then ()
  else if flip t pol.Policy.drop then ()
  else
    let arrival = now + t.latency_ns + jitter_draw t t.jitter_ns in
    schedule t ~at:arrival
      (Ack { e_src = l.l_src; e_dst = l.l_dst; upto = l.delivered })

let handle t ~at = function
  | Data { e_src; e_dst; seq; payload } ->
      let l = link t ~src:e_src ~dst:e_dst in
      if seq <= l.delivered || Hashtbl.mem l.ooo seq then
        (* wire-level duplicate or retransmission of a delivered frame:
           discard, but re-ack so the sender stops retrying *)
        t.s_dup_frames <- t.s_dup_frames + 1
      else begin
        Hashtbl.replace l.ooo seq payload;
        (* in-order delivery through the reassembly buffer: the kernel's
           per-sender msg_seq filter assumes FIFO arrival per sender, so
           the transport must never release frame n+1 before frame n *)
        let continue = ref true in
        while !continue do
          match Hashtbl.find_opt l.ooo (l.delivered + 1) with
          | None -> continue := false
          | Some p ->
              Hashtbl.remove l.ooo (l.delivered + 1);
              l.delivered <- l.delivered + 1;
              t.s_deliveries <- t.s_deliveries + 1;
              t.deliver ~at ~src:e_src ~dst:e_dst p
        done
      end;
      send_ack t ~now:at ~l
  | Ack { e_src; e_dst; upto } ->
      let l = link t ~src:e_src ~dst:e_dst in
      if upto > l.acked then begin
        for s = l.acked + 1 to upto do
          Hashtbl.remove l.outstanding s
        done;
        l.acked <- upto
      end
  | Retry { e_src; e_dst; seq } -> (
      let l = link t ~src:e_src ~dst:e_dst in
      match Hashtbl.find_opt l.outstanding seq with
      | None -> () (* acked in the meantime; the timer is a no-op *)
      | Some fr ->
          if fr.attempts >= max_retries then begin
            (* budget exhausted: abandon the frame and latch the link
               failed — graceful degradation, not an infinite retry *)
            Hashtbl.remove l.outstanding seq;
            t.s_gave_up <- t.s_gave_up + 1;
            l.l_failed <- true
          end
          else begin
            fr.attempts <- fr.attempts + 1;
            t.s_retransmits <- t.s_retransmits + 1;
            transmit t ~now:at ~l ~seq fr.payload;
            schedule t
              ~at:(at + rto_after t fr.attempts)
              (Retry { e_src; e_dst; seq })
          end)

(* [earliest] makes an idle pump one integer compare: the queue is
   touched only when its minimum is due. *)
let pump t ~now =
  if now > t.watermark then t.watermark <- now;
  while t.earliest <= t.watermark && not (Q.is_empty t.queue) do
    let ((at, _) as key), ev = Q.min_binding t.queue in
    t.queue <- Q.remove key t.queue;
    t.earliest <-
      (match Q.min_binding_opt t.queue with
      | Some ((next, _), _) -> next
      | None -> max_int);
    handle t ~at ev
  done

(* Range-restricted views for a multi-tenant scheduler sharing one
   transport: a tenant owning global pids [lo, hi) must judge deadlock
   and degradation from its own links only, not from frames another
   tenant still has in flight.  Links never cross tenants, so an event's
   sending endpoint identifies its owner. *)
let event_src = function
  | Data { e_src; _ } | Ack { e_src; _ } | Retry { e_src; _ } -> e_src

(* A range covering every pid (a private transport's) is answered from
   [earliest] without touching the queue. *)
let next_event_in t ~lo ~hi =
  if lo <= 0 && hi >= t.nprocs then
    if Q.is_empty t.queue then None else Some t.earliest
  else
    Seq.find_map
      (fun ((at, _), ev) ->
        let s = event_src ev in
        if lo <= s && s < hi then Some at else None)
      (Q.to_seq t.queue)

let any_failed_in t ~lo ~hi =
  Hashtbl.fold
    (fun _ l acc -> acc || (l.l_failed && lo <= l.l_src && l.l_src < hi))
    t.links false

let reachable t ~src ~dst ~now =
  let pol = t.policy src dst in
  (not (Policy.partitioned pol ~src ~dst ~now))
  &&
  match Hashtbl.find_opt t.links (link_key t ~src ~dst) with
  | Some l -> not l.l_failed
  | None -> true

let link_failed t ~src ~dst =
  match Hashtbl.find_opt t.links (link_key t ~src ~dst) with
  | Some l -> l.l_failed
  | None -> false

(* Frames accepted but neither delivered nor abandoned yet — in flight,
   buffered out of order, or awaiting (re)transmission. *)
let in_flight t =
  Hashtbl.fold
    (fun _ l acc -> acc + Hashtbl.length l.outstanding + Hashtbl.length l.ooo)
    t.links 0
