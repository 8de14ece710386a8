(** Recovery-protocol decision interface (paper §2.4).

    A protocol upholds Save-work by deciding, at each event a process is
    about to execute, whether to log the event's result (rendering it
    deterministic) and whether to commit — locally or via a coordinated
    two-phase commit.  The execution engine ({!Ft_runtime.Engine})
    interprets the decisions, charges their cost, and records the
    resulting commit events in the trace.

    A protocol keeps no state of its own.  The one piece of history any
    of them consults — per process, "has executed an unlogged ND event
    since its last commit" — is an array the executor owns: {!consult}
    sets a process's bit, and the executor clears it at each commit of
    that process. *)

type commit_scope =
  | Local   (* commit just this process *)
  | Global  (* two-phase commit: all processes commit *)
  | Dependent
      (* commit this process plus exactly the processes its state
         causally depends on (per the dependency vectors a logging
         protocol piggybacks on messages) — the asynchronous-logging
         alternative to a global 2PC at output commit *)

(* How a protocol treats non-determinism between commits: coordinated
   protocols commit it away synchronously; the logging styles track it
   with piggybacked dependency vectors and settle up only at output
   commit (causal logging replicates determinants causally; optimistic
   logging lets them sit in a volatile log and rolls orphans back). *)
type style = Coordinated | Causal_log | Optimistic_log

(* What the engine tells the protocol about the event about to execute. *)
type event_info = {
  kind : Event.kind;
  loggable : bool;
      (* true when the recovery system is able to log this ND event's
         result and replay it (Discount Checking logs user input and
         message receives; scheduling, signals and time remain ND) *)
}

type reaction = {
  log : bool;                           (* log the ND result *)
  commit_before : commit_scope option;  (* commit before executing *)
  commit_after : commit_scope option;   (* commit right after executing *)
}

let no_reaction = { log = false; commit_before = None; commit_after = None }

type spec = {
  spec_name : string;
  nd_effort : float;       (* protocol-space x coordinate, 0..1 (Fig. 3) *)
  visible_effort : float;  (* protocol-space y coordinate, 0..1 (Fig. 3) *)
  style : style;
  react : nd_since:bool array -> pid:int -> event_info -> reaction;
}

(* Does executing an event of [kind] taint the process — advance its own
   dependency-vector component — under [style]?  Coordinated protocols
   carry no vectors.  Under causal logging a logged determinant is
   causally replicated and survives any single crash, so only unlogged
   non-determinism taints.  Under optimistic logging the determinant sits
   in a volatile log that dies with the process, so every ND event taints
   whether logged or not — commits are the flush points. *)
let taints style ~logged kind =
  match style with
  | Coordinated -> false
  | Causal_log -> (
      (not logged)
      && match kind with Event.Nd _ | Event.Receive _ -> true | _ -> false)
  | Optimistic_log -> (
      match kind with Event.Nd _ | Event.Receive _ -> true | _ -> false)

(* An event is treated as non-deterministic by protocols unless the
   protocol itself decides to log it. *)
let info_is_nd (i : event_info) =
  match i.kind with
  | Event.Nd _ | Event.Receive _ -> true
  | Event.Internal | Event.Visible _ | Event.Send _ | Event.Commit
  | Event.Commit_round _ | Event.Crash ->
      false

let info_is_visible (i : event_info) =
  match i.kind with Event.Visible _ -> true | _ -> false

let info_is_send (i : event_info) =
  match i.kind with Event.Send _ -> true | _ -> false

(* The one rule for the executor-owned bit: an ND event the reaction does
   not log leaves non-determinism no commit covers yet.  The bit is read
   by [react] before it is set, so an event never sees its own ND. *)
let consult spec ~nd_since ~pid info =
  let r = spec.react ~nd_since ~pid info in
  if (not r.log) && info_is_nd info then nd_since.(pid) <- true;
  r
