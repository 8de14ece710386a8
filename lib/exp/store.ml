(** Append-only results store: one JSONL file per sweep.

    Every job row, completed or failed, is appended (and flushed) as it
    finishes, so a crashed or interrupted sweep resumes where it left
    off: on re-run, {!Exp.run_sweep} skips any job whose key+seed has a
    completed row — the same recover-don't-redo discipline the engine
    applies to its processes — and reruns failed ones, whose newer row
    then wins on load.  A torn final line (crash mid-append) is ignored
    on load. *)

type status = Completed | Failed of string

type record = {
  key : string;
  seed : int;
  status : status;
  value : Jstore.value;  (** [Null] for failed jobs *)
  duration_s : float;
}

type t = {
  path : string;
  tbl : (string * int, record) Hashtbl.t;
  mutable oc : out_channel option;  (** opened on first append *)
  fresh : bool;  (** truncate rather than append on first write *)
  mutex : Mutex.t;
}

let record_to_json r =
  Jstore.Obj
    [
      ("key", Jstore.String r.key);
      ("seed", Jstore.Int r.seed);
      ( "status",
        Jstore.String (match r.status with Completed -> "ok" | Failed _ -> "failed")
      );
      ( "error",
        match r.status with
        | Failed e -> Jstore.String e
        | Completed -> Jstore.Null );
      ("s", Jstore.Float r.duration_s);
      ("value", r.value);
    ]

let record_of_json v =
  match Jstore.member "key" v with
  | Some (Jstore.String key) ->
      let status =
        match Jstore.get_str ~default:"ok" "status" v with
        | "ok" -> Completed
        | _ -> Failed (Jstore.get_str ~default:"unknown error" "error" v)
      in
      Some
        {
          key;
          seed = Jstore.get_int "seed" v;
          status;
          value = Option.value ~default:Jstore.Null (Jstore.member "value" v);
          duration_s = Jstore.get_float "s" v;
        }
  | _ -> None

let path t = t.path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let load ?(fresh = false) ~dir ~sweep () =
  mkdir_p dir;
  let path = Filename.concat dir (sweep ^ ".jsonl") in
  let tbl = Hashtbl.create 64 in
  if (not fresh) && Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Jstore.of_string line with
           | Ok v -> (
               match record_of_json v with
               | Some r -> Hashtbl.replace tbl (r.key, r.seed) r
               | None -> ())
           | Error _ -> ()  (* torn or foreign line: skip *)
       done
     with End_of_file -> ());
    close_in ic
  end;
  { path; tbl; oc = None; fresh; mutex = Mutex.create () }

let find t ~key ~seed = Hashtbl.find_opt t.tbl (key, seed)
let size t = Hashtbl.length t.tbl

let records t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl []

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
      let flags =
        if t.fresh then [ Open_wronly; Open_creat; Open_trunc ]
        else [ Open_wronly; Open_creat; Open_append ]
      in
      let oc = open_out_gen flags 0o644 t.path in
      t.oc <- Some oc;
      oc

let add t r =
  Mutex.lock t.mutex;
  Hashtbl.replace t.tbl (r.key, r.seed) r;
  let oc = channel t in
  output_string oc (Jstore.to_string (record_to_json r));
  output_char oc '\n';
  (* flush per row: a ^C loses at most the in-flight record *)
  flush oc;
  Mutex.unlock t.mutex

let close t =
  match t.oc with
  | Some oc ->
      close_out oc;
      t.oc <- None
  | None -> ()
