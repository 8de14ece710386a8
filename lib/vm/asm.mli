(** A structured mini-language compiled to the {!Instr} machine.  The
    paper's workloads are real programs written in it: integer
    expressions, heap access, stack-allocated locals, functions, loops,
    and statement forms for every syscall. *)

exception Compile_error of string

type expr =
  | Int of int
  | Var of string
  | Bin of Instr.binop * expr * expr
  | Cmp of Instr.cmp * expr * expr
  | Not of expr  (** 1 if the operand is 0, else 0 *)
  | Deref of expr  (** heap[e] *)
  | Call of string * expr list
  | Time  (** gettimeofday: transient ND *)
  | Rand  (** random: transient ND *)
  | Input  (** read_input: fixed ND, waits for the user *)
  | Poll_input
  | Open_file of expr
  | Write_file of expr * expr  (** fd, value *)
  | Read_file of expr * expr  (** fd, offset *)

(** Infix sugar: arithmetic ([+:], [-:], [*:], [/:], [%:]), comparison
    ([<:], [<=:], [>:], [>=:], [=:], [<>:]) and bitwise logic on 0/1
    operands ([&&:], [||:]). *)

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr

type stmt =
  | Let of string * expr  (** declare and initialize a local *)
  | Set of string * expr
  | Set_heap of expr * expr  (** heap[addr] <- value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Break
  | Expr of expr  (** evaluate for effect *)
  | Return of expr
  | Output of expr  (** visible event *)
  | Send_msg of expr * expr  (** destination pid, payload *)
  | Recv_msg of string * string  (** payload var, sender var; blocks *)
  | Try_recv_msg of string * string
  | Close_file of expr
  | Sleep of expr  (** microseconds *)
  | Yield
  | Check of expr  (** consistency check: crash when 0 *)
  | Halt
  | Sigaction of string  (** install a function as the signal handler *)

type func = {
  name : string;
  params : string list;
  body : stmt list;
  is_handler : bool;  (** signal handlers return with [Sigret] *)
}

val func : ?is_handler:bool -> string -> string list -> stmt list -> func

type program = { funcs : func list }

val program : func list -> program
(** Execution starts at the function named ["main"]. *)

val compile : program -> Instr.t array
(** Link all functions behind a two-instruction start stub.  Raises
    {!Compile_error} on unbound variables, unknown functions, too many
    arguments, or break outside a loop. *)

val disassemble : Instr.t array -> string
