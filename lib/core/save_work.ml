(** The Save-work invariant (paper §2.3).

    Save-work Theorem: a computation is guaranteed consistent recovery from
    stop failures iff for each executed non-deterministic event [e_p^i]
    that causally precedes a visible or commit event [e], process [p]
    executes a commit [e_p^j] such that [e_p^j] happens-before (or is
    atomic with) [e], and [i < j].

    The invariant splits in two: {e Save-work-visible} (targets are visible
    events; enforces the visible constraint) and {e Save-work-orphan}
    (targets are commit events; enforces the no-orphan constraint).  This
    module checks both over a recorded {!Trace.t}. *)

type violation = {
  nd : Event.t;      (* the uncommitted non-deterministic event *)
  target : Event.t;  (* the visible or commit event it causally precedes *)
}

let pp_violation fmt v =
  Format.fprintf fmt "nd %a causally precedes %a without an intervening commit"
    Event.pp v.nd Event.pp v.target

(* Every query reads happens-before off one clock component.  For
   distinct events [a], [b] of one trace, [a] happens-before [b] iff
   [a.index < b.vc.(a.pid)]: an event's own component is [index + 1] and
   clocks only grow.  The same test with [a = b] allowed is "[a] is [b]
   or happens-before it".

   So, per target [t] and process [p]:
   - the NDs of [p] preceding [t] are the prefix of [p]'s (index-ascending)
     ND array below [t.vc.(p)];
   - a plain commit [c] on [p] reaches [t] (is it, or happens-before it)
     iff [c.index < t.vc.(p)]: the largest one is a binary search;
   - a round commit also reaches [t] when any member of its round does
     (atomicity), i.e. when for some process [q] the round's earliest
     member on [q] is below [t.vc.(q)].  Per [p] and each [q] that
     shares a round with [p], [mates] holds, over [p]'s commits, the
     suffix minima of that earliest-member index ([max_int] for a commit
     with no round member on [q]): non-decreasing, so the largest commit
     of [p] whose round reaches [t] through [q] is one binary search.
   - The violations for [(t, p)] are the NDs of that prefix at or above
     the largest reaching commit.

   The index is built in two passes over the trace; each target then costs
   O(P log N) plus O(log C) per round-mate process, P processes, N NDs
   and C commits.  The all-pairs reference this replaces lives in the
   test suite (test/test_core.ml), which checks the two agree exactly. *)
type index = {
  trace : Trace.t;
  nprocs : int;
  nd_pos : int array;            (* trace positions of the unlogged NDs *)
  nd_idx : int array array;      (* per pid: their indices, ascending *)
  nd_ord : int array array;      (* per pid: their positions in [nd_pos] *)
  commit_idx : int array array;  (* per pid: commit indices, ascending *)
  mates : (int * int array) list array;
      (* per pid: (round-mate pid, suffix minima over this pid's commits) *)
  visible : int array;           (* trace positions of visible events *)
  commits : int array;           (* trace positions of commit events *)
  crashed : bool array;
}

(* The number of elements of the ascending array [a] below [x]. *)
let below (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Two passes: one counts, so the second fills arrays of exact size and
   nothing is built twice (lists, then arrays) on a long trace. *)
let index trace =
  let n = Trace.nprocs trace in
  let nnd = Array.make n 0 and ncommits = Array.make n 0 in
  let nvisible = ref 0 and crashed = Array.make n false in
  Trace.iter trace (fun (e : Event.t) ->
      let p = e.pid in
      if Event.is_nd e then nnd.(p) <- nnd.(p) + 1
      else if Event.is_visible e then incr nvisible
      else if Event.is_commit e then ncommits.(p) <- ncommits.(p) + 1
      else if Event.is_crash e then crashed.(p) <- true);
  let nd_pos = Array.make (Array.fold_left ( + ) 0 nnd) 0 in
  let nd_idx = Array.map (fun k -> Array.make k 0) nnd in
  let nd_ord = Array.map (fun k -> Array.make k 0) nnd in
  let commit_idx = Array.map (fun k -> Array.make k 0) ncommits in
  let visible = Array.make !nvisible 0 in
  let commits = Array.make (Array.fold_left ( + ) 0 ncommits) 0 in
  (* the counts become fill cursors *)
  Array.fill nnd 0 n 0;
  Array.fill ncommits 0 n 0;
  let pos = ref 0 and nd = ref 0 and nv = ref 0 and nc = ref 0 in
  (* per pid: (commit position, round) of its round commits *)
  let round_commits = Array.make n [] in
  (* round -> (pid, index of its earliest member on pid) *)
  let rounds = Hashtbl.create 16 in
  Trace.iter trace (fun (e : Event.t) ->
      let p = e.pid in
      if Event.is_nd e then begin
        nd_pos.(!nd) <- !pos;
        nd_idx.(p).(nnd.(p)) <- e.index;
        nd_ord.(p).(nnd.(p)) <- !nd;
        nnd.(p) <- nnd.(p) + 1;
        incr nd
      end
      else if Event.is_visible e then begin
        visible.(!nv) <- !pos;
        incr nv
      end
      else if Event.is_commit e then begin
        commits.(!nc) <- !pos;
        incr nc;
        commit_idx.(p).(ncommits.(p)) <- e.index;
        (match Event.commit_round e with
        | Some r ->
            round_commits.(p) <- (ncommits.(p), r) :: round_commits.(p);
            let members = Option.value (Hashtbl.find_opt rounds r) ~default:[] in
            (* a pid's events arrive in index order: its first is earliest *)
            if not (List.mem_assoc p members) then
              Hashtbl.replace rounds r ((p, e.index) :: members)
        | None -> ());
        ncommits.(p) <- ncommits.(p) + 1
      end;
      incr pos);
  let mates =
    Array.mapi
      (fun p rcs ->
        let partners =
          List.sort_uniq compare
            (List.concat_map
               (fun (_, r) -> List.map fst (Hashtbl.find rounds r))
               rcs)
        in
        List.map
          (fun q ->
            let s = Array.make ncommits.(p) max_int in
            List.iter
              (fun (k, r) ->
                match List.assoc_opt q (Hashtbl.find rounds r) with
                | Some i -> s.(k) <- i
                | None -> ())
              rcs;
            for k = Array.length s - 2 downto 0 do
              if s.(k + 1) < s.(k) then s.(k) <- s.(k + 1)
            done;
            (q, s))
          partners)
      round_commits
  in
  { trace; nprocs = n; nd_pos; nd_idx; nd_ord; commit_idx; mates; visible;
    commits; crashed }

(* The index of [p]'s largest commit reaching [t] (it is [t], happens
   before [t], or shares a round with a commit that does); -1 if none. *)
let reach ix (t : Event.t) p =
  let cs = ix.commit_idx.(p) in
  let k =
    List.fold_left
      (fun k (q, s) -> max k (below s (Vclock.get t.vc q)))
      (below cs (Vclock.get t.vc p))
      ix.mates.(p)
  in
  if k = 0 then -1 else cs.(k - 1)

(* [p]'s NDs preceding [t] are positions [0, upper) of its ND array;
   those at [lower, upper) are not covered by a reaching commit. *)
let upper ix (t : Event.t) p = below ix.nd_idx.(p) (Vclock.get t.vc p)
let lower ix t p = below ix.nd_idx.(p) (reach ix t p)

(* [t] is covered against every process's NDs; Save-work-orphan skips
   [t]'s own process ([own = false]): a later commit on the same process
   commits the ND event itself. *)
let covered ix ~own pos =
  let t = Trace.get ix.trace pos in
  let ok p =
    (p = t.pid && not own)
    ||
    let b = upper ix t p in
    b = 0 || lower ix t p >= b
  in
  let rec go p = p >= ix.nprocs || (ok p && go (p + 1)) in
  go 0

(* Violations against [targets], ND record order first, then target
   order: each target's uncovered NDs are filed under the ND, walking
   the targets backwards so every bucket ends up in target order. *)
let violations_against ix ~own targets =
  let buckets = Array.make (Array.length ix.nd_pos) [] in
  for j = Array.length targets - 1 downto 0 do
    let t = Trace.get ix.trace targets.(j) in
    for p = 0 to ix.nprocs - 1 do
      if own || p <> t.Event.pid then begin
        let b = upper ix t p in
        if b > 0 then
          let ord = ix.nd_ord.(p) in
          for i = lower ix t p to b - 1 do
            buckets.(ord.(i)) <- t :: buckets.(ord.(i))
          done
      end
    done
  done;
  let acc = ref [] in
  for o = Array.length buckets - 1 downto 0 do
    if buckets.(o) <> [] then
      let nd = Trace.get ix.trace ix.nd_pos.(o) in
      acc := List.fold_right (fun target acc -> { nd; target } :: acc)
          buckets.(o) !acc
  done;
  !acc

(* Violations of Save-work-visible: uncommitted ND events that causally
   precede a visible event. *)
let visible_violations trace =
  let ix = index trace in
  violations_against ix ~own:true ix.visible

(* Violations of Save-work-orphan: uncommitted ND events that causally
   precede a commit on another process (an orphan-creating dependence). *)
let orphan_violations trace =
  let ix = index trace in
  violations_against ix ~own:false ix.commits

let violations trace =
  let ix = index trace in
  violations_against ix ~own:true ix.visible
  @ violations_against ix ~own:false ix.commits

let holds trace =
  let ix = index trace in
  Array.for_all (covered ix ~own:true) ix.visible
  && Array.for_all (covered ix ~own:false) ix.commits

(* A process is an orphan (§2.3, Figure 2) if it has committed a dependence
   on another process's non-deterministic event that has been lost: here,
   the ND event is "lost" when its process crashed without committing it.
   Lost NDs of [q] are a suffix of its ND array, so a commit depends on
   one iff [q]'s earliest lost ND is below the commit's [vc.(q)].  Only the
   tests call it; it shares the index rather than being tuned on its own. *)
let orphans trace =
  let ix = index trace in
  let first_lost =
    Array.init ix.nprocs (fun q ->
        let nds = ix.nd_idx.(q) and cs = ix.commit_idx.(q) in
        let nc = Array.length cs in
        let last_commit = if nc = 0 then -1 else cs.(nc - 1) in
        let i = below nds last_commit in
        if ix.crashed.(q) && i < Array.length nds then nds.(i) else max_int)
  in
  let orphan = Array.make ix.nprocs false in
  Array.iter
    (fun pos ->
      let c = Trace.get ix.trace pos in
      for q = 0 to ix.nprocs - 1 do
        if q <> c.pid && first_lost.(q) < Vclock.get c.vc q then
          orphan.(c.pid) <- true
      done)
    ix.commits;
  List.filter (fun p -> orphan.(p)) (List.init ix.nprocs Fun.id)
