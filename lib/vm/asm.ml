(** A structured mini-language compiled to the {!Instr} machine.

    The paper's workloads are real Unix programs; ours are real programs
    for the simulated machine, written in this small imperative language:
    integer expressions, heap loads/stores, local variables on the stack,
    functions, loops, and statement forms for every syscall.  Compilation
    is deliberately simple — expression temporaries go through the
    machine stack — so that the generated code has the memory and control
    structure (frames, return addresses, heap data structures, branches)
    the application fault model of §4.1 needs to act on.

    Register convention: arguments in r0..r7, syscall results in r0/r1,
    statement compilation uses r10 as its working register and r13
    (= {!Instr.scratch}) for binary-operation temporaries. *)

exception Compile_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

type expr =
  | Int of int
  | Var of string
  | Bin of Instr.binop * expr * expr
  | Cmp of Instr.cmp * expr * expr
  | Not of expr                      (* 1 if e = 0, else 0 *)
  | Deref of expr                    (* heap[e] *)
  | Call of string * expr list
  | Time                             (* gettimeofday: transient ND *)
  | Rand                             (* random: transient ND *)
  | Input                            (* read_input: fixed ND, blocking *)
  | Poll_input                       (* transient ND *)
  | Open_file of expr                (* fixed ND *)
  | Write_file of expr * expr        (* fd, value; fixed ND *)
  | Read_file of expr * expr         (* fd, offset; deterministic *)

(* Common sugar. *)
let ( +: ) a b = Bin (Instr.Add, a, b)
let ( -: ) a b = Bin (Instr.Sub, a, b)
let ( *: ) a b = Bin (Instr.Mul, a, b)
let ( /: ) a b = Bin (Instr.Div, a, b)
let ( %: ) a b = Bin (Instr.Mod, a, b)
let ( <: ) a b = Cmp (Instr.Lt, a, b)
let ( <=: ) a b = Cmp (Instr.Le, a, b)
let ( >: ) a b = Cmp (Instr.Gt, a, b)
let ( >=: ) a b = Cmp (Instr.Ge, a, b)
let ( =: ) a b = Cmp (Instr.Eq, a, b)
let ( <>: ) a b = Cmp (Instr.Ne, a, b)
let ( &&: ) a b = Bin (Instr.And, a, b)   (* on 0/1 operands *)
let ( ||: ) a b = Bin (Instr.Or, a, b)

type stmt =
  | Let of string * expr             (* declare and initialize a local *)
  | Set of string * expr             (* assign an existing local *)
  | Set_heap of expr * expr          (* heap[addr] <- value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Break
  | Expr of expr                     (* evaluate for effect *)
  | Return of expr
  | Output of expr                   (* write_output: visible *)
  | Send_msg of expr * expr          (* dest pid, payload *)
  | Recv_msg of string * string      (* payload var, sender var; blocking *)
  | Try_recv_msg of string * string  (* payload -1 if none *)
  | Close_file of expr
  | Sleep of expr                    (* microseconds of think/idle time *)
  | Yield
  | Check of expr                    (* consistency check: crash if 0 *)
  | Halt
  | Sigaction of string              (* install function as signal handler *)

type func = {
  name : string;
  params : string list;
  body : stmt list;
  is_handler : bool;  (* signal handlers return with Sigret *)
}

let func ?(is_handler = false) name params body =
  { name; params; body; is_handler }

type program = { funcs : func list }

let program funcs = { funcs }

(* ---- compilation ------------------------------------------------------ *)

type item =
  | I of Instr.t
  | Label of int
  | Jmp_l of int
  | Jz_l of Instr.reg * int
  | Jnz_l of Instr.reg * int  (* kept for completeness of the item set *)
  | Call_f of string
  | Addr_of of Instr.reg * string  (* reg <- code address of function *)

(* The compiler only emits jz-style branches today; keep jnz usable for
   hand-written assembly without tripping the unused-constructor warning. *)
let _jnz_l r l = Jnz_l (r, l)

let work : Instr.reg = 10

(* Collect the local variables of a function: parameters first, then
   every Let / Recv target in order of first appearance. *)
let collect_vars f =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let add v =
    if not (Hashtbl.mem tbl v) then begin
      Hashtbl.add tbl v (Hashtbl.length tbl);
      order := v :: !order
    end
  in
  List.iter add f.params;
  let rec stmt s =
    match s with
    | Let (v, _) -> add v
    | Recv_msg (a, b) | Try_recv_msg (a, b) ->
        add a;
        add b
    | If (_, t, e) ->
        List.iter stmt t;
        List.iter stmt e
    | While (_, b) -> List.iter stmt b
    | Set _ | Set_heap _ | Break | Expr _ | Return _ | Output _
    | Send_msg _ | Close_file _ | Sleep _ | Yield | Check _ | Halt
    | Sigaction _ ->
        ()
  in
  List.iter stmt f.body;
  tbl

let compile_func ~fresh_label f =
  let slots = collect_vars f in
  let nlocals = Hashtbl.length slots in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some i -> i
    | None -> err "function %s: unbound variable %s" f.name v
  in
  let out = ref [] in
  let emit i = out := i :: !out in
  let ins i = emit (I i) in
  (* Compile [e] so its value ends up in [dst]; may clobber the scratch
     register and r0/r1 (syscalls, calls); temporaries live on the
     machine stack so they survive nested calls and signal delivery. *)
  let rec expr dst e =
    match e with
    | Int n -> ins (Instr.Const (dst, n))
    | Var v -> ins (Instr.Sload (dst, slot v))
    | Bin (op, a, b) ->
        expr dst a;
        ins (Instr.Push dst);
        expr dst b;
        ins (Instr.Pop Instr.scratch);
        ins (Instr.Bin (op, dst, Instr.scratch, dst))
    | Cmp (op, a, b) ->
        expr dst a;
        ins (Instr.Push dst);
        expr dst b;
        ins (Instr.Pop Instr.scratch);
        ins (Instr.Cmp (op, dst, Instr.scratch, dst))
    | Not a ->
        expr dst a;
        ins (Instr.Const (Instr.scratch, 0));
        ins (Instr.Cmp (Instr.Eq, dst, dst, Instr.scratch))
    | Deref a ->
        expr dst a;
        ins (Instr.Load (dst, dst))
    | Call (name, args) ->
        let n = List.length args in
        if n > 8 then err "call %s: too many arguments" name;
        List.iter
          (fun a ->
            expr dst a;
            ins (Instr.Push dst))
          args;
        for i = n - 1 downto 0 do
          ins (Instr.Pop i)
        done;
        emit (Call_f name);
        if dst <> 0 then ins (Instr.Mov (dst, 0))
    | Time -> sys0 dst Syscall.Gettimeofday
    | Rand -> sys0 dst Syscall.Random
    | Input -> sys0 dst Syscall.Read_input
    | Poll_input -> sys0 dst Syscall.Poll_input
    | Open_file a ->
        expr dst a;
        ins (Instr.Mov (0, dst));
        ins (Instr.Sys Syscall.Open_file);
        if dst <> 0 then ins (Instr.Mov (dst, 0))
    | Write_file (fd, v) -> sys2 dst fd v Syscall.Write_file
    | Read_file (fd, off) -> sys2 dst fd off Syscall.Read_file
  and sys0 dst s =
    ins (Instr.Sys s);
    if dst <> 0 then ins (Instr.Mov (dst, 0))
  and sys2 dst a b s =
    expr dst a;
    ins (Instr.Push dst);
    expr dst b;
    ins (Instr.Pop Instr.scratch);
    ins (Instr.Mov (0, Instr.scratch));
    ins (Instr.Mov (1, dst));
    ins (Instr.Sys s);
    if dst <> 0 then ins (Instr.Mov (dst, 0))
  in
  let epilogue () =
    ins Instr.Leave;
    ins (if f.is_handler then Instr.Sigret else Instr.Ret)
  in
  let rec stmt ~break_label s =
    match s with
    | Let (v, e) | Set (v, e) ->
        expr work e;
        ins (Instr.Sstore (slot v, work))
    | Set_heap (a, v) ->
        expr work a;
        ins (Instr.Push work);
        expr work v;
        ins (Instr.Pop Instr.scratch);
        ins (Instr.Store (Instr.scratch, work))
    | If (c, then_, else_) ->
        let l_else = fresh_label () and l_end = fresh_label () in
        expr work c;
        emit (Jz_l (work, l_else));
        List.iter (stmt ~break_label) then_;
        emit (Jmp_l l_end);
        emit (Label l_else);
        List.iter (stmt ~break_label) else_;
        emit (Label l_end)
    | While (c, body) ->
        let l_top = fresh_label () and l_end = fresh_label () in
        emit (Label l_top);
        expr work c;
        emit (Jz_l (work, l_end));
        List.iter (stmt ~break_label:(Some l_end)) body;
        emit (Jmp_l l_top);
        emit (Label l_end)
    | Break -> (
        match break_label with
        | Some l -> emit (Jmp_l l)
        | None -> err "function %s: break outside loop" f.name)
    | Expr e -> expr work e
    | Return e ->
        expr work e;
        ins (Instr.Mov (0, work));
        epilogue ()
    | Output e ->
        expr work e;
        ins (Instr.Mov (0, work));
        ins (Instr.Sys Syscall.Write_output)
    | Send_msg (dest, payload) ->
        expr work dest;
        ins (Instr.Push work);
        expr work payload;
        ins (Instr.Pop Instr.scratch);
        ins (Instr.Mov (0, Instr.scratch));
        ins (Instr.Mov (1, work));
        ins (Instr.Sys Syscall.Send)
    | Recv_msg (pv, sv) ->
        ins (Instr.Sys Syscall.Recv);
        ins (Instr.Sstore (slot pv, 0));
        ins (Instr.Sstore (slot sv, 1))
    | Try_recv_msg (pv, sv) ->
        ins (Instr.Sys Syscall.Try_recv);
        ins (Instr.Sstore (slot pv, 0));
        ins (Instr.Sstore (slot sv, 1))
    | Close_file e ->
        expr work e;
        ins (Instr.Mov (0, work));
        ins (Instr.Sys Syscall.Close_file)
    | Sleep e ->
        expr work e;
        ins (Instr.Mov (0, work));
        ins (Instr.Sys Syscall.Sleep)
    | Yield -> ins (Instr.Sys Syscall.Yield)
    | Check e ->
        expr work e;
        ins (Instr.Check work)
    | Halt -> ins Instr.Halt
    | Sigaction fname ->
        emit (Addr_of (0, fname));
        ins (Instr.Sys Syscall.Sigaction)
  in
  (* Prologue: set up the frame, spill arguments into their slots. *)
  ins (Instr.Enter nlocals);
  List.iteri (fun i _ -> ins (Instr.Sstore (i, i))) f.params;
  List.iter (stmt ~break_label:None) f.body;
  epilogue ();
  List.rev !out

(* Link all functions into one code array.  Layout: a two-instruction
   start stub (call main; halt) followed by each function's body. *)
let compile (p : program) =
  let label_counter = ref 0 in
  let fresh_label () =
    incr label_counter;
    !label_counter
  in
  let compiled =
    List.map (fun f -> (f.name, compile_func ~fresh_label f)) p.funcs
  in
  if not (List.mem_assoc "main" compiled) then err "no function named main";
  (* First pass: lay out addresses. *)
  let func_addr = Hashtbl.create 16 in
  let label_addr = Hashtbl.create 64 in
  let addr = ref 2 (* start stub *) in
  List.iter
    (fun (name, items) ->
      if Hashtbl.mem func_addr name then err "duplicate function %s" name;
      Hashtbl.add func_addr name !addr;
      List.iter
        (function
          | Label l -> Hashtbl.replace label_addr l !addr
          | I _ | Jmp_l _ | Jz_l _ | Jnz_l _ | Call_f _ | Addr_of _ ->
              incr addr)
        items)
    compiled;
  let size = !addr in
  let code = Array.make size Instr.Nop in
  let faddr name =
    match Hashtbl.find_opt func_addr name with
    | Some a -> a
    | None -> err "call to undefined function %s" name
  in
  let laddr l =
    match Hashtbl.find_opt label_addr l with
    | Some a -> a
    | None -> err "internal: unresolved label %d" l
  in
  code.(0) <- Instr.Call (faddr "main");
  code.(1) <- Instr.Halt;
  let pos = ref 2 in
  List.iter
    (fun (_, items) ->
      List.iter
        (fun item ->
          match item with
          | Label _ -> ()
          | I i ->
              code.(!pos) <- i;
              incr pos
          | Jmp_l l ->
              code.(!pos) <- Instr.Jmp (laddr l);
              incr pos
          | Jz_l (r, l) ->
              code.(!pos) <- Instr.Jz (r, laddr l);
              incr pos
          | Jnz_l (r, l) ->
              code.(!pos) <- Instr.Jnz (r, laddr l);
              incr pos
          | Call_f name ->
              code.(!pos) <- Instr.Call (faddr name);
              incr pos
          | Addr_of (r, name) ->
              code.(!pos) <- Instr.Const (r, faddr name);
              incr pos)
        items)
    compiled;
  code

(* Disassembly, for debugging and the quickstart example. *)
let disassemble code =
  String.concat "\n"
    (Array.to_list
       (Array.mapi (fun i ins -> Printf.sprintf "%4d  %s" i
                       (Instr.to_string ins)) code))
