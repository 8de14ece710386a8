(** Explicit process state machines (paper §2.2, Figures 6 and 7).

    The dangerous-paths algorithm of §2.5 is stated over a process's state
    machine with its crash events.  States are integers; each edge is an
    event with a kind.  Receive edges carry no intrinsic class: in the
    multi-process algorithm their class (transient vs fixed) is computed
    from a snapshot of the other processes' commits. *)

type edge_kind =
  | Det
  | Transient_nd
  | Fixed_nd
  | Receive_nd of int  (* receive from the given sender; class computed *)

type edge = { id : int; src : int; dst : int; kind : edge_kind }

type t = {
  nstates : int;
  edges : edge array;
  crash_states : bool array;  (* states "filled black" in Figure 6 *)
  out : int list array;       (* out-edge ids per state *)
}

let make ~nstates ~edges ~crash_states =
  if nstates <= 0 then invalid_arg "State_graph.make: nstates";
  let arr =
    Array.of_list
      (List.mapi
         (fun id (src, dst, kind) ->
           if src < 0 || src >= nstates || dst < 0 || dst >= nstates then
             invalid_arg "State_graph.make: edge endpoint out of range";
           { id; src; dst; kind })
         edges)
  in
  let crash = Array.make nstates false in
  List.iter
    (fun s ->
      if s < 0 || s >= nstates then
        invalid_arg "State_graph.make: crash state out of range";
      crash.(s) <- true)
    crash_states;
  let out = Array.make nstates [] in
  Array.iter (fun e -> out.(e.src) <- e.id :: out.(e.src)) arr;
  Array.iteri (fun i l -> out.(i) <- List.rev l) out;
  { nstates; edges = arr; crash_states = crash; out }

let nedges t = Array.length t.edges
let edge t id = t.edges.(id)
let out_edges t s = List.map (fun id -> t.edges.(id)) t.out.(s)
let is_crash_state t s = t.crash_states.(s)

(* A crash event is an edge whose end state is a crash state: executing it
   transitions into a state from which the process cannot continue. *)
let is_crash_edge t e = t.crash_states.(e.dst)

(* Graphviz export: dangerous edges drawn red, crash states filled
   black (the visual language of the paper's Figures 6 and 7). *)
let to_dot ?(dangerous = [||]) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph dangerous_paths {\n  rankdir=LR;\n";
  for s = 0 to t.nstates - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  s%d [shape=circle%s];\n" s
         (if t.crash_states.(s) then
            " style=filled fillcolor=black fontcolor=white"
          else ""))
  done;
  Array.iter
    (fun e ->
      let label =
        match e.kind with
        | Det -> ""
        | Transient_nd -> "ND"
        | Fixed_nd -> "fixed ND"
        | Receive_nd src -> Printf.sprintf "recv(%d)" src
      in
      let red =
        e.id < Array.length dangerous && dangerous.(e.id)
      in
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%s\"%s];\n" e.src e.dst label
           (if red then " color=red penwidth=2" else "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
