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
