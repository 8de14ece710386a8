(** System calls of the simulated machine, classified by the paper's
    event taxonomy when serviced by {!Ft_os.Kernel}.  Arguments travel in
    r0/r1; results come back in r0 (and r1 for [Recv]'s sender). *)

type t =
  | Gettimeofday  (** r0 <- time in us; transient ND *)
  | Random  (** r0 <- pseudo-random; transient ND *)
  | Read_input  (** r0 <- next token, -1 at end; fixed ND; may wait *)
  | Poll_input  (** r0 <- readiness; transient ND *)
  | Write_output  (** emit r0; visible *)
  | Send  (** send payload r1 to process r0 *)
  | Recv  (** r0 <- payload, r1 <- sender; transient ND; blocks *)
  | Try_recv  (** like [Recv] but r0 <- -1 when empty *)
  | Open_file  (** r0 name id -> fd, or -1 when the table is full (fixed ND) *)
  | Write_file  (** fd r0, value r1 -> 1, or -1 when the disk is full (fixed ND) *)
  | Read_file  (** fd r0, offset r1 -> value; deterministic *)
  | Close_file
  | Sigaction  (** install the handler at code address r0 *)
  | Sleep  (** advance local time by r0 microseconds *)
  | Yield  (** scheduling point *)

val to_string : t -> string
val all : t list

val index : t -> int
(** The syscall's position in {!all}: a dense key in [[0, count)] for
    per-syscall tables. *)

val count : int
(** [List.length all]. *)
