(* Spans around the benchmark's calls into the libraries' public
   functions.  Tracing is off unless [on] is set; [with_] then only calls
   the function, so untraced passes pay nothing for it.  Traced spans are
   kept in memory and written out once, when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the operation the span belongs to; -1 when shared *)
  name : string;  (** [layer.call] *)
  key : string;  (** free-form detail, e.g. the job key *)
  t0 : float;
  t1 : float;
}

let on = ref false
let now = Unix.gettimeofday
let finished : t list ref = ref []
let next_id = ref 1

(* open spans: (id, op), innermost first *)
let stack : (int * int) list ref = ref []

let with_ ?op ?(key = "") name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !stack with (p, o) :: _ -> (p, o) | [] -> (0, -1)
    in
    let op = Option.value op ~default:inherited in
    stack := (id, op) :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        finished := { id; parent; op; name; key; t0; t1 } :: !finished)
      f
  end

(* [capture f] runs [f] and also returns the spans it finished. *)
let capture f =
  let before = !finished in
  finished := [];
  let v = f () in
  let mine = !finished in
  finished := mine @ before;
  (v, mine)

let duration s = s.t1 -. s.t0
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let total ?(where = fun _ -> true) name spans =
  List.fold_left
    (fun acc s -> if s.name = name && where s then acc +. duration s else acc)
    0. spans

(* Self time per layer: each span's duration minus the time its direct
   children cover (children run nested and sequentially). *)
let self_by_layer spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. duration s))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt self (layer s)) in
      Hashtbl.replace self (layer s) (prev +. duration s -. covered))
    spans;
  self

(* Chrome trace-event JSON: opens in a browser's built-in trace viewer. *)
let write path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !finished
  in
  let us t = (t -. origin) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  List.rev !finished
  |> List.iteri (fun i s ->
         Printf.fprintf oc
           "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"key\":%S}}\n"
           (if i = 0 then "" else ",")
           s.name (layer s) (us s.t0) (duration s *. 1e6) s.id s.parent s.op
           s.key);
  output_string oc "]}\n";
  close_out oc
