(** Instruction set of the simulated word-addressed machine.  The
    application fault types of paper §4.1 are mutations at this level:
    changed destination registers, deleted branches and instructions,
    off-by-one comparison operators, lost initializations, and bit
    flips in machine state. *)

type reg = int
(** Register index, [0 .. num_regs-1]. *)

val num_regs : int

val scratch : reg
(** The compiler's scratch register (r13). *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne
type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr

type t =
  | Nop
  | Halt
  | Const of reg * int  (** dst <- imm *)
  | Mov of reg * reg
  | Bin of binop * reg * reg * reg  (** dst <- a op b *)
  | Cmp of cmp * reg * reg * reg  (** dst <- (a cmp b) ? 1 : 0 *)
  | Load of reg * reg  (** dst <- heap[addr] *)
  | Store of reg * reg  (** heap[addr] <- src *)
  | Push of reg
  | Pop of reg
  | Sload of reg * int  (** dst <- stack[fp + off] *)
  | Sstore of int * reg  (** stack[fp + off] <- src *)
  | Jmp of int
  | Jz of reg * int
  | Jnz of reg * int
  | Call of int
  | Ret
  | Enter of int  (** push fp; fp <- sp; reserve locals (left stale) *)
  | Leave
  | Sys of Syscall.t
  | Check of reg  (** consistency check: crash if the register is 0 *)
  | Sigret  (** return from a signal handler, restoring all registers *)

val to_string : t -> string

val dest_reg : t -> reg option
(** The destination register, if any: the target of the
    destination-register fault type. *)

val with_dest_reg : t -> reg -> t
val is_branch : t -> bool
val is_cmp : t -> bool

val off_by_one_cmp : cmp -> cmp
(** The §4.1 off-by-one mutation of a comparison operator. *)
