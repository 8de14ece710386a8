(** nvi: a pointer-rich visual text editor (paper §3, §4).  Keystrokes
    are fixed ND input; each keystroke redraws the status line (visible);
    [:w] writes a summary of the buffer to a file; a rare timer signal
    supplies the unloggable ND of Figure 8a. *)

type params = {
  keystrokes : int;
  interval_ns : int;  (** think time between keystrokes *)
  signal_period_ns : int;
  check_every : int;
      (** consistency-check cadence in keystrokes; 1 = the paranoid
          crash-early mode of §2.6 *)
  seed : int;
}

val default_params : params
(** The paper's cadence: 100 ms between keystrokes. *)

val small_params : params
(** A fast non-interactive session for tests and fault campaigns (the
    paper's crash tests also used a fast nvi). *)

val workload : ?params:params -> unit -> Workload.t
