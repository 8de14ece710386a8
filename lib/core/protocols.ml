(** The concrete Save-work protocols evaluated in the paper (§2.4, §3).

    Core protocols:
    - CAND: commit immediately after every non-deterministic event.
    - CPVS: commit just before every visible or send event.
    - CBNDVS: commit before a visible or send event if the process has
      executed a non-deterministic event since its last commit.

    Adding logging of user input and message receives yields CAND-LOG and
    CBNDVS-LOG; replacing commit-before-send with a coordinated two-phase
    commit on visible events yields CPV-2PC and CBNDV-2PC.

    Two degenerate protocols are included: COMMIT-ALL (the origin of the
    protocol space: commit after every event, no knowledge needed) and
    NO-COMMIT (never commit: trivially upholds Lose-work, §2.6, while
    forfeiting Save-work). *)

open Protocol

let commit_after_local = { no_reaction with commit_after = Some Local }
let commit_before_local = { no_reaction with commit_before = Some Local }
let commit_before_global = { no_reaction with commit_before = Some Global }
let commit_before_dependent =
  { no_reaction with commit_before = Some Dependent }
let log_it = { no_reaction with log = true }

(* Commit after every event: maximal simplicity, maximal commits. *)
let commit_all =
  {
    spec_name = "COMMIT-ALL";
    nd_effort = 0.0;
    visible_effort = 0.0;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info.kind = Event.Crash then no_reaction else commit_after_local);
  }

(* Never commit: the simplest way to uphold Lose-work (§2.6). *)
let no_commit =
  {
    spec_name = "NO-COMMIT";
    nd_effort = 0.0;
    visible_effort = 0.0;
    style = Coordinated;
    react = (fun ~nd_since:_ ~pid:_ _ -> no_reaction);
  }

(* CAND: Commit After Non-Deterministic. *)
let cand =
  {
    spec_name = "CAND";
    nd_effort = 0.35;
    visible_effort = 0.0;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info_is_nd info then commit_after_local else no_reaction);
  }

(* CAND-LOG: log the loggable ND events (user input, receives); commit
   after the rest. *)
let cand_log =
  {
    spec_name = "CAND-LOG";
    nd_effort = 0.6;
    visible_effort = 0.0;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info_is_nd info then
          if info.loggable then log_it else commit_after_local
        else no_reaction);
  }

(* CPVS: Commit Prior to Visible or Send.  Needs no knowledge of
   non-determinism; committing before sends pessimistically avoids
   passing uncommitted dependences to other processes. *)
let cpvs =
  {
    spec_name = "CPVS";
    nd_effort = 0.0;
    visible_effort = 0.5;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info_is_visible info || info_is_send info then commit_before_local
        else no_reaction);
  }

(* CBNDVS: commit before a visible or send only if an unlogged ND event
   was executed since the last commit. *)
let make_cbndvs ~name ~nd_effort ~log_loggable =
  {
    spec_name = name;
    nd_effort;
    visible_effort = 0.5;
    style = Coordinated;
    react =
      (fun ~nd_since ~pid info ->
        if info_is_nd info then
          if log_loggable && info.loggable then log_it else no_reaction
        else if (info_is_visible info || info_is_send info) && nd_since.(pid)
        then commit_before_local
        else no_reaction);
  }

let cbndvs = make_cbndvs ~name:"CBNDVS" ~nd_effort:0.35 ~log_loggable:false
let cbndvs_log =
  make_cbndvs ~name:"CBNDVS-LOG" ~nd_effort:0.6 ~log_loggable:true

(* CPV-2PC: all processes commit (two-phase commit) whenever any process
   executes a visible event; no commits before sends. *)
let cpv_2pc =
  {
    spec_name = "CPV-2PC";
    nd_effort = 0.0;
    visible_effort = 0.85;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info_is_visible info then commit_before_global else no_reaction);
  }

let any_nd_since nd_since = Array.exists Fun.id nd_since

(* CBNDV-2PC: a global commit before a visible event, but only when some
   process has executed an unlogged ND event since the last commit. *)
let cbndv_2pc =
  {
    spec_name = "CBNDV-2PC";
    nd_effort = 0.35;
    visible_effort = 0.85;
    style = Coordinated;
    react =
      (fun ~nd_since ~pid:_ info ->
        if info_is_visible info && any_nd_since nd_since then
          commit_before_global
        else no_reaction);
  }

(* Coordinated checkpointing (§2.4): processes executing a visible event
   force all recently-communicating processes to commit.  Without
   causality tracking this behaves like CPV-2PC; we keep it as a separate
   name for the protocol-space map and ablations. *)
let coordinated_checkpointing =
  { cpv_2pc with spec_name = "COORD-CKPT"; visible_effort = 0.95 }

(* Sender-based logging (§2.4): message receives are rendered
   deterministic by logging at the sender, so an application whose only
   non-determinism is receives never commits; other ND events still
   force a commit (SBL makes no effort towards visible events). *)
let sender_based_logging =
  {
    spec_name = "SBL";
    nd_effort = 0.55;
    visible_effort = 0.0;
    style = Coordinated;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        match info.kind with
        | Event.Receive _ -> log_it
        | _ -> if info_is_nd info then commit_after_local else no_reaction);
  }

(* A Manetho-style protocol (§2.4): log all the non-determinism the
   recovery system can capture (receives and user input, here) and force
   output commits — coordinated — only at visible events. *)
let manetho =
  {
    spec_name = "MANETHO";
    nd_effort = 0.75;
    visible_effort = 0.95;
    style = Coordinated;
    react =
      (fun ~nd_since ~pid:_ info ->
        if info_is_nd info then
          if info.loggable then log_it else no_reaction
        else if info_is_visible info && any_nd_since nd_since then
          commit_before_global
        else no_reaction);
  }

(* A message-logging protocol's react is style-independent: log every
   loggable determinant asynchronously, never commit for ND, and at a
   visible event request a {e dependent} commit — the engine (or model)
   resolves the request against the piggybacked dependency vectors and
   commits exactly the processes the output causally depends on (nothing
   at all when the output is untainted). *)
let make_logging ~name ~nd_effort ~visible_effort ~style =
  {
    spec_name = name;
    nd_effort;
    visible_effort;
    style;
    react =
      (fun ~nd_since:_ ~pid:_ info ->
        if info_is_nd info then
          if info.loggable then log_it else no_reaction
        else if info_is_visible info then commit_before_dependent
        else no_reaction);
  }

(* CAUSAL-LOG: Manetho-style causal message logging (§2.4).  Determinants
   of logged events ride the dependency vectors to every causally
   downstream process, so they survive any single crash; only unlogged
   non-determinism taints, and a visible event commits exactly the tainted
   processes it depends on.  Efforts match the literature Manetho point on
   the Figure-3 map. *)
let causal_log =
  make_logging ~name:"CAUSAL-LOG" ~nd_effort:0.75 ~visible_effort:0.95
    ~style:Causal_log

(* OPTIMISTIC: optimistic message logging (§2.4).  Determinants go to a
   volatile log that dies with the process, so every ND event taints until
   a commit flushes it; recovery rolls back orphans — survivors whose
   state depends on the victim's lost non-determinism.  Efforts match the
   literature Optimistic point. *)
let optimistic =
  make_logging ~name:"OPTIMISTIC" ~nd_effort:0.6 ~visible_effort:0.8
    ~style:Optimistic_log

(* The seven protocols measured in Figure 8. *)
let figure8 =
  [ cand; cand_log; cpvs; cbndvs; cbndvs_log; cpv_2pc; cbndv_2pc ]

(* The executable message-logging protocols added on top of Figure 8. *)
let message_logging = [ causal_log; optimistic ]

(* Figure 8 extended with the message-logging column pair (9 columns). *)
let figure8_extended = figure8 @ message_logging

let all =
  commit_all :: no_commit :: coordinated_checkpointing
  :: sender_based_logging :: manetho :: figure8_extended

let by_name name =
  List.find_opt
    (fun s -> String.lowercase_ascii s.spec_name = String.lowercase_ascii name)
    all
