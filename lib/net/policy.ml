(** Per-link fault policy for the unreliable channel.

    A policy describes what one direction of a link may do to frames in
    flight: lose them, deliver them twice, delay them past their
    successors, or cut the link in both directions for a window of
    simulated time (a partition, possibly healing).  All randomness is
    drawn by the transport from its own seeded stream; the policy itself
    is pure data, so a sweep point is reproducible from (policy, seed)
    alone. *)

type partition = {
  part_from : int;   (* ns, inclusive *)
  part_until : int;  (* ns, exclusive; [max_int] never heals *)
  part_src : int;    (* -1 matches any source *)
  part_dst : int;    (* -1 matches any destination *)
}

type t = {
  drop : float;       (* P(frame lost), per transmission attempt *)
  duplicate : float;  (* P(frame delivered twice) *)
  reorder : float;    (* P(frame delayed past its successors) *)
  reorder_ns : int;   (* extra delay a reordered frame suffers *)
  partitions : partition list;
}

let reliable =
  {
    drop = 0.;
    duplicate = 0.;
    reorder = 0.;
    reorder_ns = 0;
    partitions = [];
  }

let make ?(drop = 0.) ?(duplicate = 0.) ?(reorder = 0.)
    ?(reorder_ns = 300_000) ?(partitions = []) () =
  { drop; duplicate; reorder; reorder_ns; partitions }

let partition ?(src = -1) ?(dst = -1) ~from_ns ~until_ns () =
  { part_from = from_ns; part_until = until_ns; part_src = src; part_dst = dst }

let cuts p ~src ~dst ~now =
  let matches s d =
    (p.part_src = -1 || p.part_src = s) && (p.part_dst = -1 || p.part_dst = d)
  in
  now >= p.part_from && now < p.part_until
  && (matches src dst || matches dst src)

(* Is the [src]->[dst] direction cut at time [now]? *)
let partitioned t ~src ~dst ~now =
  List.exists (fun p -> cuts p ~src ~dst ~now) t.partitions
