(** ASCII table/figure rendering for experiment output. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let pad_left width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

(* Render a table with a header row; first column left-aligned, the rest
   right-aligned. *)
let table ~headers ~rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let render_row row =
    List.iteri
      (fun i cell ->
        let s =
          if i = 0 then pad widths.(i) cell else pad_left widths.(i) cell
        in
        Buffer.add_string buf (if i = 0 then s else "  " ^ s))
      row;
    Buffer.add_char buf '\n'
  in
  render_row headers;
  let total =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf

let pct x = Printf.sprintf "%.0f%%" x
let pct1 x = Printf.sprintf "%.1f%%" x
let fps x = Printf.sprintf "%.1f fps" x

let section title =
  let bar = String.make (String.length title) '=' in
  Printf.sprintf "\n%s\n%s\n" title bar

(* BENCH_RESULTS.json is one flat object whose keys several writers own
   (the bench harness, [ft serve], [ft rescue]): each merges its own in
   and keeps the rest, since the CI schema gate requires the key set
   only ever to grow.  A file that is not a JSON object is refused and
   left untouched rather than replaced. *)
let merge_bench ~path kvs =
  let module J = Ft_exp.Jstore in
  let read () =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    J.of_string (String.trim s)
  in
  try
    match
      if Sys.file_exists path then read ()
      else Ok (J.Obj [ ("schema", J.String "ft-bench/1") ])
    with
    | Ok (J.Obj existing) ->
        let kept =
          List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) existing
        in
        let oc = open_out path in
        output_string oc (J.to_string (J.Obj (kept @ kvs)));
        output_char oc '\n';
        close_out oc;
        Ok ()
    | _ -> Error (path ^ " is not a JSON object; refusing to overwrite it")
  with Sys_error e -> Error e
