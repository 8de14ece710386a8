(* The bounded model checker's execution model: a small multi-process
   program over the abstract event alphabet, executed one schedule at a
   time under a protocol, with a single injected crash (between steps or
   inside a commit), honest rollback recovery, and a canonical
   completion.

   Non-deterministic results are modeled as {e lineage hashes}: every
   draw mixes into a per-process accumulator, message payloads carry the
   sender's accumulator, and visible values digest the emitter's
   accumulator — so a lost-and-redrawn result that reaches output after
   recovery produces a value no failure-free execution can produce, and
   {!Ft_core.Consistency.check} detects it. *)

open Ft_core

type op =
  | Internal
  | Nd of Event.nd_class * bool
  | Visible
  | Send of int
  | Receive

type program = op array array

(* Menus chosen so that ND events sit just ahead of visibles and sends
   (the Save-work danger patterns), with traffic in both directions.
   Deliberate patterns: an unlogged transient ND directly before a
   visible (forces the commit-before-visible protocols to actually
   commit there), and a loggable transient ND before a visible (whose
   replay is only safe if the log entry survives — the drop-log mutant's
   kill site). *)
let menu_even =
  [|
    Nd (Event.Transient, false); Send 0; Visible; Receive;
    Nd (Event.Transient, true); Visible; Nd (Event.Fixed, false); Send 0;
    Receive; Visible; Internal; Send 0;
  |]

let menu_odd =
  [|
    Receive; Nd (Event.Transient, false); Visible; Send 0;
    Nd (Event.Transient, true); Visible; Receive; Nd (Event.Fixed, false);
    Send 0; Visible; Internal; Send 0;
  |]

let default_program ~nprocs ~depth =
  Array.init nprocs (fun p ->
      let menu = if p mod 2 = 0 then menu_even else menu_odd in
      Array.init depth (fun i ->
          match menu.(i mod Array.length menu) with
          | Send _ -> Send ((p + 1) mod nprocs)
          | o -> o))

let program_digest prog =
  Digest.to_hex (Digest.string (Marshal.to_string prog []))

type defect =
  | Honest
  | Skip_orphan
  | Drop_log
  | Publish_first
  | No_retransmit
  | Drop_dv
  | No_orphan_kill
  | Resume_from_scratch
  | Gc_live_determinant
  | Commit_budget

type nstage = NRestore | NCascade

type crash =
  | No_crash
  | Stop of int
  | Mid_commit of { landed : bool }
  | Lose of { src : int; dst : int; seq : int }
  | Nested of { victim : int; stage : nstage }

type run = {
  trace : Trace.t;
  prefix_trace : Trace.t;
  observed : int list;
  reference : int list Lazy.t;
  commit_pcs : (int * int) list;
  crash_pc : (int * int) option;
  last_step_committed : bool;
  prefix_bindings : ((int * int) * (int * int) option) list;
  pending : (int * int * int) list;
  logged_pcs : (int * int) list;
  next_pids : int list;
  steps : int;
}

(* ---- deterministic value model ----------------------------------------- *)

let mix a b = ((a * 1000003) lxor b) land 0x3FFFFFFF
let seed0 = 0x2545f
let h3 tag a b = mix (mix (mix seed0 tag) a) b
let h4 tag a b c = mix (h3 tag a b) c
let acc0 pid = mix seed0 (pid + 1)
let draw_transient ~pid ~pc ~gen = h4 1 pid pc gen
let draw_fixed ~pid ~pc = h3 2 pid pc
let payload_of ~pid ~pc ~acc = h4 3 pid pc acc
let visible_of ~pid ~pc ~acc = h4 5 pid pc acc

(* ---- machine state ------------------------------------------------------ *)

(* What the recovery system replays from its log: an ND result, or a
   receive binding (message identity and content). *)
type log_entry =
  | Lnd of int
  | Lrecv of { src : int; seq : int; payload : int; tag : int }

(* The per-run tables are persistent maps in mutable fields: a fork shares
   them, and a write replaces only the writer's field. *)
module Pc_map = Map.Make (struct
  type t = int * int

  let compare ((a, b) : t) ((c, d) : t) =
    match Int.compare a c with 0 -> Int.compare b d | x -> x
end)

module Msg_map = Map.Make (struct
  type t = int * int * int

  let compare ((a, b, c) : t) ((d, e, f) : t) =
    match Int.compare a d with
    | 0 -> ( match Int.compare b e with 0 -> Int.compare c f | y -> y)
    | x -> x
end)

(* One event since the process's last commit, as the state key sees it. *)
type since =
  | R of { pc : int; src : int; seq : int; logged : bool }  (* receive *)
  | N of { pc : int; logged : bool }  (* ND draw *)
  | V of int  (* visible at pc *)
  | S of { pc : int; dst : int }  (* send *)

type snapshot = {
  s_pc : int;  (* resume point *)
  s_acc : int;
  s_cursor : int array;  (* per source *)
  s_sent : int array;  (* per destination *)
  s_dv : int array;  (* dependency vector at the commit *)
  s_stable : int array;  (* confirmed-stable marks at the commit *)
}

type state = {
  prog : program;
  nprocs : int;
  spec : Protocol.spec;
  defect : defect;
  style : Protocol.style;
  nd_since : bool array;  (* per process, for {!Protocol.consult} *)
  mutable budget : int;  (* [Commit_budget]: committing reactions left *)
  pcs : int array;
  accs : int array;
  (* The matrices are flat, row [p] at [p * nprocs], so a fork copies
     each with one [Array.copy]. *)
  gen_base : int array;  (* gens row of pid: its first pc's slot *)
  gens : int array;  (* gens.(gen_base.(pid) + pc): executions, for redraws *)
  cursor : int array;  (* cursor.(dst * nprocs + src): consumed count *)
  sent : int array;  (* sent.(src * nprocs + dst): sent count *)
  dvs : int array;  (* row pid: live dependency vector *)
  stable : int array;
      (* stable.(pid * nprocs + q): how much of q's own non-determinism
         pid has CONFIRMED stable, via a dependent-commit round's ack —
         local knowledge, never an omniscient read of q's commit state.
         Rolls back with pid (the confirming ack may be un-received). *)
  mutable mail : (int * int * Vclock.t * int array) Msg_map.t;
      (* (src, dst, seq) -> payload, tag, send vclock, sender dv *)
  snaps : snapshot array;
  since : since list array;  (* events since last commit *)
  mutable draws : int Pc_map.t;  (* surviving ND result at (pid, pc) *)
  mutable log : log_entry Pc_map.t;
  mutable recv_bind : (int * int * int) option Pc_map.t;
      (* surviving receive binding: (src, seq, payload), None = skipped *)
  mutable first_stamp : int Pc_map.t;
  mutable now : int;
  mutable next_tag : int;
  mutable ack_tag : int;
  mutable round : int;
  mutable observed_rev : int list;
  mutable commit_pcs_rev : (int * int) list;
  mutable steps : int;
  mutable committed_this_step : bool;
  mutable last_pid : int option;  (* scheduled by the last prefix step *)
  mutable mid_victim : int option;  (* crashed inside that step's commit *)
  trace : Trace.t;
}

(* [Commit_budget]: the broken commit machinery honours only the first
   [commit_budget] reactions that ask for a commit, and drops the commit
   requests of every later one. *)
let commit_budget = 2

let react st ~pid info =
  let r = Protocol.consult st.spec ~nd_since:st.nd_since ~pid info in
  let commits = r.commit_before <> None || r.commit_after <> None in
  if st.defect <> Commit_budget || not commits then r
  else if st.budget > 0 then (st.budget <- st.budget - 1; r)
  else { r with commit_before = None; commit_after = None }

let record st ~pid ?(logged = false) kind =
  Trace.record st.trace ~pid ~logged kind

(* Slot (p, q) of a flat matrix. *)
let ix st p q = (p * st.nprocs) + q
let row st m p = Array.sub m (p * st.nprocs) st.nprocs

(* One more unit of the process's own uncovered non-determinism. *)
let tick_own_dv st pid =
  let i = ix st pid pid in
  st.dvs.(i) <- st.dvs.(i) + 1

let snapshot st pid =
  st.snaps.(pid) <-
    {
      s_pc = st.pcs.(pid);
      s_acc = st.accs.(pid);
      s_cursor = row st st.cursor pid;
      s_sent = row st st.sent pid;
      s_dv = row st st.dvs pid;
      s_stable = row st st.stable pid;
    };
  st.since.(pid) <- []

(* The process's own dependency-vector component as of its last commit —
   the taint baseline: dv entries above this record non-determinism that
   no durable state covers. *)
let committed_own st q =
  let s = st.snaps.(q) in
  if Array.length s.s_dv > 0 then s.s_dv.(q) else 0

(* ---- commits ------------------------------------------------------------ *)

exception Crashed_mid_commit

type commit_trap = { landed : bool; mutable fired : bool }

let commit_one st ~pid kind =
  ignore (record st ~pid kind);
  st.commit_pcs_rev <- (pid, st.pcs.(pid)) :: st.commit_pcs_rev;
  snapshot st pid;
  st.nd_since.(pid) <- false

(* The processes a dependent commit at [pid] must pull in: everyone
   whose non-determinism the coordinator's state (or a participant's)
   transitively depends on beyond what the depending process has
   CONFIRMED stable.  Each hop uses the depending process's own
   [stable] marks — never an omniscient read of the dependency's commit
   state: a dependency may well have committed already, but until an
   acknowledged round tells this process so, it must be contacted, and
   that exchange is what puts the covering commit in the output's
   causal past.  The closure matters — a participant's snapshot carries
   taint the coordinator never saw directly, and its sources must
   commit atomically with it or the commit manufactures an orphan. *)
let dependent_set st ~pid =
  let in_set = Array.make st.nprocs false in
  let rec close p =
    for q = 0 to st.nprocs - 1 do
      let i = ix st p q in
      if q <> pid && (not in_set.(q)) && st.dvs.(i) > st.stable.(i) then begin
        in_set.(q) <- true;
        close q
      end
    done
  in
  close pid;
  in_set

(* A dependent commit with no remote dependencies and no local taint is
   a no-op: the logging protocols commit nothing at an output whose
   lineage is already covered. *)
let dependent_noop st ~pid =
  (not (Array.exists (fun b -> b) (dependent_set st ~pid)))
  && st.dvs.(ix st pid pid) <= committed_own st pid

(* Two-phase commit: participants commit and acknowledge first, the
   coordinator commits last, all commits of the round atomic with each
   other.  [Skip_orphan] drops the participant side entirely — only the
   coordinator's commit happens.  [Dependent] is the logging protocols'
   demand-driven variant: only the dependency closure commits (one
   shared round), or just the coordinator when the taint is purely
   local. *)
(* [Gc_live_determinant]: the broken determinant GC treats "executed"
   as "retired" — any commit anywhere drops every log entry below its
   owner's *current* pc, including entries the owner's committed
   snapshot does not cover yet.  The honest engine retires an entry only
   once the owner's commit watermark has passed it (and its dependents
   have committed), so a replay can never miss one. *)
let gc_live st =
  st.log <- Pc_map.filter (fun (q, pc) _ -> pc >= st.pcs.(q)) st.log

let commit_scope st ~pid scope =
  (match scope with
  | Protocol.Local -> commit_one st ~pid Event.Commit
  | Protocol.Global ->
      let r = st.round in
      st.round <- r + 1;
      for q = 0 to st.nprocs - 1 do
        if q <> pid && st.defect <> Skip_orphan then begin
          commit_one st ~pid:q (Event.Commit_round r);
          let tag = st.ack_tag in
          st.ack_tag <- tag - 1;
          ignore (record st ~pid:q (Event.Send { dest = pid; tag }));
          ignore
            (record st ~pid ~logged:true (Event.Receive { src = q; tag }))
        end
      done;
      commit_one st ~pid (Event.Commit_round r)
  | Protocol.Dependent ->
      let in_set = dependent_set st ~pid in
      if Array.exists (fun b -> b) in_set then begin
        let r = st.round in
        st.round <- r + 1;
        for q = 0 to st.nprocs - 1 do
          if in_set.(q) then begin
            commit_one st ~pid:q (Event.Commit_round r);
            let tag = st.ack_tag in
            st.ack_tag <- tag - 1;
            ignore (record st ~pid:q (Event.Send { dest = pid; tag }));
            ignore
              (record st ~pid ~logged:true (Event.Receive { src = q; tag }));
            (* the ack confirms everything of q's own ND to date is now
               durable; the coordinator's next commit snapshots this
               knowledge, so q is not re-contacted for old taint *)
            st.stable.(ix st pid q) <- st.dvs.(ix st q q)
          end
        done;
        (* the coordinator always closes the round, tainted or not: its
           commit is what makes the round reach the output *)
        commit_one st ~pid (Event.Commit_round r)
      end
      else if st.dvs.(ix st pid pid) > committed_own st pid then
        commit_one st ~pid Event.Commit);
  if st.defect = Gc_live_determinant then gc_live st

let do_commit st ~trap ~pid = function
  | None -> ()
  | Some Protocol.Dependent when dependent_noop st ~pid ->
      (* nothing would land: no commit happened this step, and there is
         no commit for a mid-commit crash to interrupt *)
      ()
  | Some scope -> (
      st.committed_this_step <- true;
      match trap with
      | Some t when not t.fired ->
          t.fired <- true;
          (* Vista atomicity: the whole commit (the whole coordinated
             round) lands, or none of it does; either way the process
             crashes before anything else in this step. *)
          if t.landed then commit_scope st ~pid scope;
          raise Crashed_mid_commit
      | _ -> commit_scope st ~pid scope)

(* ---- one step ----------------------------------------------------------- *)

let desc_since st pid d = st.since.(pid) <- d :: st.since.(pid)

(* Record the position of (pid, pc) in the reference order the first
   time its effect actually happens — not when a step merely starts, or
   a mid-commit crash would give a never-executed event a position. *)
let stamp st pid pc =
  let s = st.now in
  st.now <- s + 1;
  if not (Pc_map.mem (pid, pc) st.first_stamp) then
    st.first_stamp <- Pc_map.add (pid, pc) s st.first_stamp

let receive_binding st pid pc =
  match Pc_map.find_opt (pid, pc) st.log with
  | Some (Lrecv { src; seq; payload; tag }) -> Some (src, seq, payload, tag)
  | _ ->
      let rec scan src =
        if src >= st.nprocs then None
        else if st.sent.(ix st src pid) > st.cursor.(ix st pid src) then
          let seq = st.cursor.(ix st pid src) in
          match Msg_map.find_opt (src, pid, seq) st.mail with
          | Some (payload, tag, _, _) -> Some (src, seq, payload, tag)
          | None -> scan (src + 1)
        else scan (src + 1)
      in
      scan 0

(* A process is blocked when its next operation is a receive with no
   undelivered message and no log entry to replay: receives wait, they
   do not silently happen.  They resolve to a skip only at quiescence,
   when no message can ever arrive — which makes the skip/bind choice a
   deterministic function of the message counts, not of the schedule. *)
let blocked st pid =
  let pc = st.pcs.(pid) in
  pc < Array.length st.prog.(pid)
  && st.prog.(pid).(pc) = Receive
  && receive_binding st pid pc = None

(* Returns [true] when the process made progress.  [force_skip] resolves
   a blocked receive as "nothing will ever arrive": pc advances with no
   message consumed. *)
let exec_step st ~trap ?(force_skip = false) pid =
  let pc = st.pcs.(pid) in
  if pc >= Array.length st.prog.(pid) then false
  else begin
    match st.prog.(pid).(pc) with
    | Receive -> (
        match receive_binding st pid pc with
        | None when not force_skip -> false (* blocked: wait *)
        | None ->
            st.steps <- st.steps + 1;
            stamp st pid pc;
            st.recv_bind <- Pc_map.add (pid, pc) None st.recv_bind;
            st.pcs.(pid) <- pc + 1;
            true
        | Some (src, seq, payload, tag) ->
            st.steps <- st.steps + 1;
            let info =
              { Protocol.kind = Event.Receive { src; tag }; loggable = true }
            in
            let reaction = react st ~pid info in
            do_commit st ~trap ~pid
              reaction.Protocol.commit_before;
            stamp st pid pc;
            let logged = reaction.Protocol.log in
            ignore (record st ~pid ~logged (Event.Receive { src; tag }));
            let c = ix st pid src in
            st.cursor.(c) <- Int.max st.cursor.(c) (seq + 1);
            st.accs.(pid) <- mix st.accs.(pid) payload;
            (* piggybacked dependency vector: the receiver's state now
               depends on everything the sender's did at send time *)
            (match Msg_map.find_opt (src, pid, seq) st.mail with
            | Some (_, _, _, dv) when st.defect <> Drop_dv ->
                Array.iteri
                  (fun q x ->
                    let i = ix st pid q in
                    if x > st.dvs.(i) then st.dvs.(i) <- x)
                  dv
            | _ -> ());
            if Protocol.taints st.style ~logged (Event.Receive { src; tag })
            then tick_own_dv st pid;
            st.recv_bind <-
              Pc_map.add (pid, pc) (Some (src, seq, payload)) st.recv_bind;
            if logged && st.defect <> Drop_log
               && not (Pc_map.mem (pid, pc) st.log)
            then
              st.log <-
                Pc_map.add (pid, pc) (Lrecv { src; seq; payload; tag }) st.log;
            desc_since st pid (R { pc; src; seq; logged });
            st.pcs.(pid) <- pc + 1;
            do_commit st ~trap ~pid reaction.Protocol.commit_after;
            true)
    | op ->
        let info, value =
          match op with
          | Internal -> ({ Protocol.kind = Event.Internal; loggable = false }, 0)
          | Nd (c, lg) ->
              let v =
                match Pc_map.find_opt (pid, pc) st.log with
                | Some (Lnd v) -> v
                | _ -> (
                    match c with
                    | Event.Transient ->
                        draw_transient ~pid ~pc
                          ~gen:st.gens.(st.gen_base.(pid) + pc)
                    | Event.Fixed -> draw_fixed ~pid ~pc)
              in
              ({ Protocol.kind = Event.Nd c; loggable = lg }, v)
          | Visible ->
              let v = visible_of ~pid ~pc ~acc:st.accs.(pid) in
              ({ Protocol.kind = Event.Visible v; loggable = false }, v)
          | Send d ->
              let p = payload_of ~pid ~pc ~acc:st.accs.(pid) in
              ({ Protocol.kind = Event.Send { dest = d; tag = -1 };
                 loggable = false },
               p)
          | Receive -> assert false
        in
        st.steps <- st.steps + 1;
        let reaction = react st ~pid info in
        let do_event () =
          stamp st pid pc;
          match op with
          | Internal -> ()
          | Nd (c, lg) ->
              let g = st.gen_base.(pid) + pc in
              st.gens.(g) <- st.gens.(g) + 1;
              st.draws <- Pc_map.add (pid, pc) value st.draws;
              st.accs.(pid) <- mix st.accs.(pid) value;
              let logged = reaction.Protocol.log && lg in
              if Protocol.taints st.style ~logged (Event.Nd c) then
                tick_own_dv st pid;
              ignore (record st ~pid ~logged (Event.Nd c));
              if logged && st.defect <> Drop_log
                 && not (Pc_map.mem (pid, pc) st.log)
              then st.log <- Pc_map.add (pid, pc) (Lnd value) st.log;
              desc_since st pid (N { pc; logged })
          | Visible ->
              ignore (record st ~pid (Event.Visible value));
              st.observed_rev <- value :: st.observed_rev;
              desc_since st pid (V pc)
          | Send d ->
              let seq = st.sent.(ix st pid d) in
              let tag = st.next_tag in
              st.next_tag <- tag + 1;
              let e = record st ~pid (Event.Send { dest = d; tag }) in
              let dv = row st st.dvs pid in
              st.mail <-
                Msg_map.add (pid, d, seq) (value, tag, e.Event.vc, dv) st.mail;
              st.sent.(ix st pid d) <- seq + 1;
              desc_since st pid (S { pc; dst = d })
          | Receive -> ()
        in
        let publish_early =
          match op with Visible -> st.defect = Publish_first | _ -> false
        in
        if publish_early then begin
          (* the broken runtime hands the value to the user before the
             protocol's pre-visible commit has landed *)
          do_event ();
          st.pcs.(pid) <- pc + 1;
          do_commit st ~trap ~pid reaction.Protocol.commit_before;
          do_commit st ~trap ~pid reaction.Protocol.commit_after
        end
        else begin
          do_commit st ~trap ~pid reaction.Protocol.commit_before;
          do_event ();
          st.pcs.(pid) <- pc + 1;
          do_commit st ~trap ~pid reaction.Protocol.commit_after
        end;
        true
  end

(* ---- recovery ----------------------------------------------------------- *)

let restore st pid =
  let s = st.snaps.(pid) in
  st.pcs.(pid) <- s.s_pc;
  st.accs.(pid) <- s.s_acc;
  let at = pid * st.nprocs in
  Array.blit s.s_cursor 0 st.cursor at st.nprocs;
  Array.blit s.s_sent 0 st.sent at st.nprocs;
  if Array.length s.s_dv = st.nprocs then
    Array.blit s.s_dv 0 st.dvs at st.nprocs;
  if Array.length s.s_stable = st.nprocs then
    Array.blit s.s_stable 0 st.stable at st.nprocs;
  st.since.(pid) <- [];
  (* the restored state is the one right after the snapshot's commit *)
  st.nd_since.(pid) <- false

(* Roll the victim back to its last commit, then cascade.

   Coordinated protocols: any process whose consumed-message cursor now
   points past what a rolled-back sender has sent holds an orphaned
   dependence; if its own last commit does not cover that dependence,
   rolling it back resolves the orphan honestly.  If its commit does
   cover it, recovery must leave it alone — a protocol that allowed that
   state is caught by the oracles.

   Logging styles: recovery is orphan detection over dependency vectors
   instead — a survivor whose vector records more of the victim's
   non-determinism than the victim's restored state regenerates is an
   orphan, and rolls back too (cascading).  Message content alone does
   not orphan anyone: a logged receive replays from the log without the
   sender re-sending.  Under [Optimistic_log] the determinant log is
   volatile memory, so every rolled-back process additionally loses its
   log entries past the restore point — that lost suffix is what makes
   unkilled orphans inconsistent, and the [No_orphan_kill] defect
   (skipping the cascade) is how the checker proves the kill is
   load-bearing.  Either way, a surviving determinant that describes a
   message the sender's own rollback un-sent is dead — the redone send
   may carry a redrawn payload, and replaying the stale binding would
   smuggle the dead lineage back in — so those entries are purged after
   the cascade settles. *)
let rollback ?nested st victim =
  let wipe_volatile_log p =
    if st.style = Protocol.Optimistic_log then begin
      let s_pc = st.snaps.(p).s_pc in
      st.log <- Pc_map.filter (fun (q, pc) _ -> q <> p || pc < s_pc) st.log
    end
  in
  let rerestore p =
    restore st p;
    wipe_volatile_log p
  in
  restore st victim;
  wipe_volatile_log victim;
  (match nested with
  | Some NRestore ->
      (* nested failure mid-restore: the victim dies again while its own
         restore replays.  Restore is idempotent — recovery just redoes
         it from the same snapshot. *)
      rerestore victim
  | _ -> ());
  (* The cascade as an explicit worklist with persisted progress,
     mirroring the engine's re-enterable orphan cascade.  A nested
     mid-cascade crash fires after the first worklist entry has been
     fully processed: the victim is re-restored (idempotent) and honest
     recovery RESUMES from the persisted worklist and rolled set, while
     the [Resume_from_scratch] defect re-enters from the victim alone —
     losing orphans reachable only through intermediates already rolled
     back, whose restored state no longer advertises the taint. *)
  let cascade restore_orphans_of =
    let rolled = Array.make st.nprocs false in
    rolled.(victim) <- true;
    let work = Queue.create () in
    Queue.add victim work;
    let until_recrash =
      ref (match nested with Some NCascade -> 1 | _ -> -1)
    in
    while not (Queue.is_empty work) do
      let v = Queue.pop work in
      restore_orphans_of rolled work v;
      if !until_recrash > 0 then begin
        decr until_recrash;
        if !until_recrash = 0 then begin
          rerestore victim;
          if st.defect = Resume_from_scratch then begin
            Queue.clear work;
            Queue.add victim work;
            Array.fill rolled 0 st.nprocs false;
            rolled.(victim) <- true
          end
        end
      end
    done;
    rolled
  in
  match st.style with
  | Protocol.Coordinated ->
      ignore
        (cascade (fun rolled work p ->
             for q = 0 to st.nprocs - 1 do
               if (not rolled.(q))
                  && st.cursor.(ix st q p) > st.sent.(ix st p q)
               then begin
                 restore st q;
                 rolled.(q) <- true;
                 Queue.add q work
               end
             done)
          : bool array)
  | Protocol.Causal_log | Protocol.Optimistic_log ->
      let rolled =
        if st.defect <> No_orphan_kill then
          cascade (fun rolled work v ->
              let v_own = st.dvs.(ix st v v) in
              for q = 0 to st.nprocs - 1 do
                if (not rolled.(q)) && st.dvs.(ix st q v) > v_own then begin
                  restore st q;
                  wipe_volatile_log q;
                  rolled.(q) <- true;
                  Queue.add q work
                end
              done)
        else begin
          let rolled = Array.make st.nprocs false in
          rolled.(victim) <- true;
          rolled
        end
      in
      (* purge determinants of un-sent messages: an Lrecv past a
         rolled-back receiver's restore point whose sender also rolled
         back past the send (seq at or beyond the restored send count)
         names a message that no longer exists *)
      st.log <-
        Pc_map.filter
          (fun (p, pc) entry ->
            not
              (rolled.(p) && pc >= st.snaps.(p).s_pc
              &&
              match entry with
              | Lrecv { src; seq; _ } ->
                  rolled.(src) && seq >= st.sent.(ix st src p)
              | Lnd _ -> false))
          st.log

(* ---- state key ---------------------------------------------------------- *)

(* Everything the future of an execution can depend on, as pure data:
   pcs, lineage accumulators, channel state (with send clocks), commit
   snapshots, per-process ND/commit summaries with their vector clocks
   (what Save-work verdicts on extensions are computed from), and the
   events since each last commit (the protocols' internal state).
   Deliberately rich — a missed merge costs time, a false merge costs
   soundness; `--no-prune` cross-checks the choice.  The arrays, records,
   event kinds and clocks are marshalled as they are, without sharing, so
   equal states give equal bytes whatever their physical sharing: a
   process's ND and receive events stand whole (its pid is implied by
   its slot), its commits as (index, clock), and its current clock is
   the last event's, if it has one. *)
let state_key st =
  let per_proc p =
    let nds = ref [] and commits = ref [] and cur_vc = ref None in
    Trace.iter_of st.trace p (fun e ->
        if Event.is_nd e || Event.is_receive e then nds := e :: !nds
        else if Event.is_commit e then
          commits := (e.Event.index, e.Event.vc) :: !commits;
        cur_vc := Some e.Event.vc);
    (!nds, !commits, !cur_vc)
  in
  let pending = ref [] in
  for src = st.nprocs - 1 downto 0 do
    for dst = st.nprocs - 1 downto 0 do
      for seq = st.sent.(ix st src dst) - 1 downto st.cursor.(ix st dst src) do
        match Msg_map.find_opt (src, dst, seq) st.mail with
        | Some (payload, _, vc, dv) ->
            pending := (src, dst, seq, payload, vc, dv) :: !pending
        | None -> ()
      done
    done
  done;
  let repr =
    ( (st.pcs, st.accs, st.cursor, st.sent, st.dvs, st.stable),
      !pending,
      st.snaps,
      st.since,
      Array.init st.nprocs per_proc,
      st.round,
      st.observed_rev )
  in
  Digest.string (Marshal.to_string repr [ Marshal.No_sharing ])

(* ---- reference construction --------------------------------------------- *)

(* The failure-free execution the observed output must be equivalent to:
   replay every (pid, pc) in order of its first execution, with the
   surviving values — the last result of each ND draw (redraws replace
   the dead lineage) and the surviving binding of each receive.  On a
   crash-free run this reproduces the observed output exactly; after a
   recovery it is the run the surviving lineage belongs to.  A rebound
   receive can name a send first-executed later in the order; its
   surviving payload is used directly — for honest protocols the sender
   regenerates that payload identically, and for broken ones the
   divergence this hides is visible in the lineages downstream. *)
let build_reference st =
  let pairs =
    Pc_map.bindings st.first_stamp
    |> List.sort (fun ((_ : int * int), a) (_, b) -> compare a b)
  in
  let accs = Array.init st.nprocs acc0 in
  let rsent = Array.make_matrix st.nprocs st.nprocs 0 in
  let rmail = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun ((pid, pc), _) ->
      match st.prog.(pid).(pc) with
      | Internal -> ()
      | Nd _ ->
          let v =
            Option.value ~default:0 (Pc_map.find_opt (pid, pc) st.draws)
          in
          accs.(pid) <- mix accs.(pid) v
      | Visible -> out := visible_of ~pid ~pc ~acc:accs.(pid) :: !out
      | Send d ->
          let seq = rsent.(pid).(d) in
          Hashtbl.replace rmail (pid, d, seq)
            (payload_of ~pid ~pc ~acc:accs.(pid));
          rsent.(pid).(d) <- seq + 1
      | Receive -> (
          match Pc_map.find_opt (pid, pc) st.recv_bind with
          | None | Some None -> ()
          | Some (Some (src, seq, raw)) ->
              let payload =
                match Hashtbl.find_opt rmail (src, pid, seq) with
                | Some p -> p
                | None -> raw
              in
              accs.(pid) <- mix accs.(pid) payload))
    pairs;
  List.rev !out

(* ---- whole runs --------------------------------------------------------- *)

(* Processes with script left, ascending. *)
let runnable prog ~pcs =
  let r = ref [] in
  for p = Array.length prog - 1 downto 0 do
    if pcs.(p) < Array.length prog.(p) then r := p :: !r
  done;
  !r

let start ~spec ~defect ~program =
  let nprocs = Array.length program in
  let gen_base = Array.make (nprocs + 1) 0 in
  Array.iteri
    (fun p ops -> gen_base.(p + 1) <- gen_base.(p) + Array.length ops)
    program;
  let st =
    {
      prog = program;
      nprocs;
      spec;
      defect;
      style = spec.Protocol.style;
      nd_since = Array.make nprocs false;
      budget = commit_budget;
      pcs = Array.make nprocs 0;
      accs = Array.init nprocs acc0;
      gen_base;
      gens = Array.make gen_base.(nprocs) 0;
      cursor = Array.make (nprocs * nprocs) 0;
      sent = Array.make (nprocs * nprocs) 0;
      dvs = Array.make (nprocs * nprocs) 0;
      stable = Array.make (nprocs * nprocs) 0;
      mail = Msg_map.empty;
      snaps =
        Array.make nprocs
          {
            s_pc = 0;
            s_acc = 0;
            s_cursor = [||];
            s_sent = [||];
            s_dv = [||];
            s_stable = [||];
          };
      since = Array.make nprocs [];
      draws = Pc_map.empty;
      log = Pc_map.empty;
      recv_bind = Pc_map.empty;
      first_stamp = Pc_map.empty;
      now = 0;
      next_tag = 0;
      ack_tag = -1;
      round = 0;
      observed_rev = [];
      commit_pcs_rev = [];
      steps = 0;
      committed_this_step = false;
      last_pid = None;
      mid_victim = None;
      trace = Trace.create ~nprocs;
    }
  in
  (* the initial state of every process is committed (paper §2.3) *)
  for p = 0 to nprocs - 1 do
    snapshot st p
  done;
  st

let quiescent st =
  let stuck = ref true in
  for p = 0 to st.nprocs - 1 do
    if st.pcs.(p) < Array.length st.prog.(p) && not (blocked st p) then
      stuck := false
  done;
  !stuck

let advance st ?trap pid =
  st.last_pid <- Some pid;
  if st.mid_victim = None then begin
    st.committed_this_step <- false;
    let trap = Option.map (fun landed -> { landed; fired = false }) trap in
    (* scheduling a blocked process is a no-op — unless the whole system
       is quiescent, in which case no message can ever arrive and the
       blocked receive deterministically resolves to a skip *)
    let force_skip = blocked st pid && quiescent st in
    try ignore (exec_step st ~trap ~force_skip pid)
    with Crashed_mid_commit -> st.mid_victim <- Some pid
  end

(* A fork copies the arrays and the trace and shares everything else:
   the persistent tables (a write replaces only the writer's own field),
   the snapshots and since lists the copied arrays hold, and the mail
   entries, log entries and recorded events, all immutable once
   written. *)
let fork st =
  {
    st with
    nd_since = Array.copy st.nd_since;
    pcs = Array.copy st.pcs;
    accs = Array.copy st.accs;
    gens = Array.copy st.gens;
    cursor = Array.copy st.cursor;
    sent = Array.copy st.sent;
    dvs = Array.copy st.dvs;
    stable = Array.copy st.stable;
    snaps = Array.copy st.snaps;
    since = Array.copy st.since;
    trace = Trace.copy st.trace;
  }

(* A crash-free completion executes each remaining op exactly once: a
   receive either binds or, at quiescence, skips, and a blocked one is
   retried without counting. *)
let crash_free_steps st =
  let n = ref st.steps in
  Array.iteri (fun p ops -> n := !n + Array.length ops - st.pcs.(p)) st.prog;
  !n

let finish st crash =
  let nprocs = st.nprocs and program = st.prog in
  let last_step_committed = st.committed_this_step in
  (* the schedule choices available after this prefix: processes that
     can make progress, or — at quiescence — the blocked ones, whose
     next step is the deterministic skip *)
  let next_pids =
    let can =
      List.filter (fun p -> not (blocked st p)) (runnable program ~pcs:st.pcs)
    in
    if can <> [] then can else runnable program ~pcs:st.pcs
  in
  let prefix_trace = Trace.prefix st.trace in
  let prefix_bindings =
    List.map
      (fun (k, b) -> (k, Option.map (fun (src, seq, _) -> (src, seq)) b))
      (Pc_map.bindings st.recv_bind)
  in
  let pending =
    let acc = ref [] in
    for src = nprocs - 1 downto 0 do
      for dst = nprocs - 1 downto 0 do
        for seq = st.sent.(ix st src dst) - 1 downto st.cursor.(ix st dst src)
        do
          if Msg_map.mem (src, dst, seq) st.mail then
            acc := (src, dst, seq) :: !acc
        done
      done
    done;
    !acc
  in
  (* A lost frame: under an honest runtime the sender's retransmission
     layer repairs a single loss before anyone can observe it, so the
     drop is a no-op on the model state.  Under [No_retransmit] the
     payload really disappears — the receiver's cursor can never pass
     the hole (FIFO links), so the whole link falls silent and the
     blocked receives resolve to skips at quiescence. *)
  (match crash with
  | Lose { src; dst; seq } when st.defect = No_retransmit ->
      st.mail <- Msg_map.remove (src, dst, seq) st.mail
  | _ -> ());
  let victim =
    match (crash, st.mid_victim) with
    | No_crash, _ | Lose _, _ -> None
    | _, Some v -> Some v
    | Stop v, None -> Some v
    | Nested { victim = v; _ }, None -> Some v
    | Mid_commit _, None ->
        (* the step had no commit to crash inside: degenerate to a stop
           failure of the last scheduled process *)
        st.last_pid
  in
  let crash_pc =
    match victim with
    | None -> None
    | Some v ->
        let at = (v, st.pcs.(v)) in
        ignore (record st ~pid:v Event.Crash);
        let nested =
          match crash with Nested { stage; _ } -> Some stage | _ -> None
        in
        rollback ?nested st v;
        Some at
  in
  (* canonical completion: round-robin to the end of every script (the
     single-failure model means no further crashes); at quiescence the
     lowest blocked process resolves its receive as a skip *)
  let unfinished () = runnable program ~pcs:st.pcs <> [] in
  while unfinished () do
    let progressed = ref false in
    for p = 0 to nprocs - 1 do
      if exec_step st ~trap:None p then progressed := true
    done;
    if not !progressed then
      match runnable program ~pcs:st.pcs with
      | p :: _ -> ignore (exec_step st ~trap:None ~force_skip:true p)
      | [] -> ()
  done;
  {
    trace = st.trace;
    prefix_trace;
    observed = List.rev st.observed_rev;
    reference = lazy (build_reference st);
    commit_pcs = List.rev st.commit_pcs_rev;
    crash_pc;
    last_step_committed;
    prefix_bindings;
    pending;
    next_pids;
    logged_pcs = List.map fst (Pc_map.bindings st.log);
    steps = st.steps;
  }

let run ~spec ~defect ~program ~prefix ~crash =
  let st = start ~spec ~defect ~program in
  let n = List.length prefix in
  List.iteri
    (fun i pid ->
      let trap =
        match crash with
        | Mid_commit { landed } when i = n - 1 -> Some landed
        | _ -> None
      in
      advance st ?trap pid)
    prefix;
  finish st crash
