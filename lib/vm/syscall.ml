(** System calls of the simulated machine.

    Each syscall is classified by the event taxonomy of the paper: the
    kernel model ({!Ft_os.Kernel}) services a call and reports the event
    kind (transient/fixed ND, visible, send, receive) to the execution
    engine, which consults the recovery protocol.  Argument and result
    registers follow a fixed convention: arguments in r0, r1; results in
    r0 (and r1 for [Recv]'s sender pid). *)

type t =
  | Gettimeofday  (* r0 <- current time; transient ND *)
  | Random        (* r0 <- pseudo-random value; transient ND *)
  | Read_input    (* r0 <- next input token (-1 at end); fixed ND; blocks *)
  | Poll_input    (* r0 <- 1 if input is ready, 0 otherwise; transient ND *)
  | Write_output  (* emit r0 to the user; visible *)
  | Send          (* send payload r1 to process r0 *)
  | Recv          (* r0 <- payload, r1 <- sender; transient ND; blocks *)
  | Try_recv      (* r0 <- payload or -1, r1 <- sender; transient ND *)
  | Open_file     (* r0 = name id -> r0 <- fd or -1; fixed ND *)
  | Write_file    (* fd r0, value r1 -> r0 <- 1 or -1 (disk full); fixed ND *)
  | Read_file     (* fd r0, offset r1 -> r0 <- value; deterministic *)
  | Close_file    (* fd r0; deterministic *)
  | Sigaction     (* install signal handler at code address r0 *)
  | Sleep         (* advance local time by r0 microseconds; deterministic *)
  | Yield         (* scheduling point; deterministic *)

let to_string = function
  | Gettimeofday -> "gettimeofday"
  | Random -> "random"
  | Read_input -> "read_input"
  | Poll_input -> "poll_input"
  | Write_output -> "write_output"
  | Send -> "send"
  | Recv -> "recv"
  | Try_recv -> "try_recv"
  | Open_file -> "open_file"
  | Write_file -> "write_file"
  | Read_file -> "read_file"
  | Close_file -> "close_file"
  | Sigaction -> "sigaction"
  | Sleep -> "sleep"
  | Yield -> "yield"

let all =
  [ Gettimeofday; Random; Read_input; Poll_input; Write_output; Send; Recv;
    Try_recv; Open_file; Write_file; Read_file; Close_file; Sigaction;
    Sleep; Yield ]

(* Position in [all]: a dense key for per-syscall tables. *)
let index = function
  | Gettimeofday -> 0
  | Random -> 1
  | Read_input -> 2
  | Poll_input -> 3
  | Write_output -> 4
  | Send -> 5
  | Recv -> 6
  | Try_recv -> 7
  | Open_file -> 8
  | Write_file -> 9
  | Read_file -> 10
  | Close_file -> 11
  | Sigaction -> 12
  | Sleep -> 13
  | Yield -> 14

let count = 15
