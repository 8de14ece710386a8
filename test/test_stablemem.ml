(* Tests for the Rio/Vista/Disk substrate: persistence accounting, the
   write hook, the persisted undo log (including crash-during-commit and
   recovery from region words alone), and the disk cost model. *)

open Ft_stablemem

let test_rio_basics () =
  let r = Rio.create ~size:64 in
  Rio.write r 3 42;
  Alcotest.(check int) "read back" 42 (Rio.read r 3);
  Rio.blit_in r ~off:10 [| 1; 2; 3 |];
  Alcotest.(check (list int)) "blit out" [ 1; 2; 3 ]
    (Array.to_list (Rio.sub r ~off:10 ~len:3));
  Alcotest.(check int) "write accounting" 4 (Rio.words_written r)

let test_rio_bounds () =
  let r = Rio.create ~size:8 in
  Alcotest.check_raises "oob write" (Invalid_argument "Rio.write: out of range")
    (fun () -> Rio.write r 8 1);
  Alcotest.check_raises "oob blit"
    (Invalid_argument "Rio.blit_in: out of range") (fun () ->
      Rio.blit_in r ~off:6 [| 1; 2; 3 |])

let test_rio_write_hook () =
  (* the hook sees every word, blits included, before it persists; a
     raising hook aborts the word and everything after it *)
  let r = Rio.create ~size:16 in
  let seen = ref [] in
  Rio.set_on_write r (Some (fun off v -> seen := (off, v) :: !seen));
  Rio.write r 0 7;
  Rio.blit_in r ~off:4 [| 1; 2 |];
  Alcotest.(check (list (pair int int)))
    "hook saw the word sequence"
    [ (0, 7); (4, 1); (5, 2) ]
    (List.rev !seen);
  Rio.set_on_write r
    (Some
       (fun _ _ -> raise (Rio.Crash_point (Rio.words_written r))));
  (try Rio.blit_in r ~off:8 [| 9; 9 |] with Rio.Crash_point _ -> ());
  Alcotest.(check int) "intercepted write never landed" 0 (Rio.read r 8);
  Rio.set_on_write r None;
  (* poke bypasses both the hook and the accounting *)
  let before = Rio.words_written r in
  Rio.poke r 8 5;
  Alcotest.(check int) "poke landed" 5 (Rio.read r 8);
  Alcotest.(check int) "poke not accounted" before (Rio.words_written r)

let test_vista_commit () =
  let r = Rio.create ~size:64 in
  let v = Vista.create r in
  Vista.begin_tx v;
  Vista.write_range v ~off:0 [| 7; 8; 9 |];
  Vista.commit v;
  Alcotest.(check (list int)) "committed" [ 7; 8; 9 ]
    (Array.to_list (Rio.sub r ~off:0 ~len:3));
  Alcotest.(check int) "one commit" 1 (Vista.commits v);
  Alcotest.(check int) "log discarded" 0 (Vista.log_words v)

let test_vista_abort_restores () =
  let r = Rio.create ~size:64 in
  let v = Vista.create r in
  Vista.begin_tx v;
  Vista.write_range v ~off:0 [| 1; 1; 1 |];
  Vista.commit v;
  Vista.begin_tx v;
  Vista.write_range v ~off:0 [| 2; 2; 2 |];
  Vista.write_word v ~off:1 99;
  Alcotest.(check int) "mid-tx visible" 99 (Rio.read r 1);
  Vista.abort v;
  Alcotest.(check (list int)) "before-images applied" [ 1; 1; 1 ]
    (Array.to_list (Rio.sub r ~off:0 ~len:3));
  Alcotest.(check int) "abort counted" 1 (Vista.aborts v)

let test_vista_crash_mid_commit () =
  (* a crash with an open transaction recovers to the previous state *)
  let r = Rio.create ~size:64 in
  let v = Vista.create r in
  Vista.begin_tx v;
  Vista.write_range v ~off:4 [| 5; 5 |];
  Vista.commit v;
  Vista.begin_tx v;
  Vista.write_range v ~off:4 [| 6; 6 |];
  (* crash here: recovery runs the undo log *)
  Vista.recover v;
  Alcotest.(check (list int)) "rolled back to last commit" [ 5; 5 ]
    (Array.to_list (Rio.sub r ~off:4 ~len:2));
  Alcotest.(check bool) "no open tx" false (Vista.in_tx v)

let test_vista_recovery_from_region_alone () =
  (* the undo log lives in the region: a FRESH Vista over the old region
     (a process that lost all heap state) recovers identically, and the
     persisted counters survive with it *)
  let r = Rio.create ~size:64 in
  let v = Vista.create r in
  Vista.begin_tx v;
  Vista.write_range v ~off:0 [| 3; 4; 5 |];
  Vista.commit v;
  Vista.begin_tx v;
  Vista.write_range v ~off:0 [| 8; 8; 8 |];
  (* crash: [v] and its heap state are gone; only [r]'s words remain *)
  let v2 = Vista.create r in
  Alcotest.(check int) "commit counter persisted" 1 (Vista.commits v2);
  Alcotest.(check bool) "torn tx visible in the log" true
    (Vista.undo_records v2 > 0);
  Vista.recover v2;
  Alcotest.(check (list int)) "recovered from words alone" [ 3; 4; 5 ]
    (Array.to_list (Rio.sub r ~off:0 ~len:3));
  Alcotest.(check int) "rollback counted as abort" 1 (Vista.aborts v2)

let test_vista_outside_data_area_rejected () =
  let r = Rio.create ~size:64 in
  let v = Vista.create r in
  (* default data area is half the region *)
  Alcotest.(check int) "default data area" 32 (Vista.data_words v);
  Vista.begin_tx v;
  Alcotest.check_raises "log area protected"
    (Invalid_argument "Vista.write_range: outside the data area")
    (fun () -> Vista.write_range v ~off:31 [| 1; 2 |])

let test_vista_nesting_rejected () =
  let v = Vista.create (Rio.create ~size:16) in
  Vista.begin_tx v;
  Alcotest.check_raises "no nesting"
    (Invalid_argument "Vista.begin_tx: transaction already open") (fun () ->
      Vista.begin_tx v)

let test_disk_costs () =
  let d = Disk.default in
  Alcotest.(check bool) "access dominates small writes" true
    (Disk.write_cost d ~words:1 < Disk.write_cost d ~words:100_000);
  Alcotest.(check int) "zero words still pays access" d.Disk.access_ns
    (Disk.write_cost d ~words:0);
  Alcotest.(check bool) "commit pays two accesses" true
    (Disk.commit_cost d ~words:0 = 2 * d.Disk.access_ns);
  Alcotest.(check bool) "fast disk is faster" true
    (Disk.write_cost Disk.fast ~words:100 < Disk.write_cost d ~words:100)

(* qcheck: any interleaving of committed and aborted transactions leaves
   the data area equal to replaying only the committed ones. *)
let prop_vista_atomicity =
  QCheck.Test.make ~name:"aborted transactions leave no trace" ~count:200
    QCheck.(
      list_of_size (QCheck.Gen.int_bound 20)
        (triple (0 -- 27) (0 -- 100) bool))
    (fun ops ->
      let r = Rio.create ~size:64 in
      let v = Vista.create r in
      let data = Vista.data_words v in
      let model = Array.make data 0 in
      List.iter
        (fun (off, value, commit) ->
          Vista.begin_tx v;
          Vista.write_range v ~off [| value; value + 1 |];
          if commit then begin
            Vista.commit v;
            model.(off) <- value;
            model.(off + 1) <- value + 1
          end
          else Vista.abort v)
        ops;
      Array.to_list (Rio.sub r ~off:0 ~len:data) = Array.to_list model)

(* qcheck: arbitrary transactional writes, then a crash after an
   arbitrary number of persisted word writes inside commit.  Recovery —
   through a fresh Vista, from region words alone — must restore exactly
   the last committed image, commits and aborts counters included. *)
let prop_crash_point_atomicity =
  QCheck.Test.make
    ~name:"any crash point inside commit recovers the committed image"
    ~count:300
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_bound 6)
           (triple (0 -- 27) (In_range.int 1 1000) bool))
        (list_of_size (QCheck.Gen.int_bound 6)
           (pair (0 -- 27) (In_range.int 1 1000)))
        (0 -- 200))
    (fun (history, final_writes, crash_after) ->
      let r = Rio.create ~size:256 in
      let v = Vista.create ~data_words:32 r in
      let model = Array.make 32 0 in
      List.iter
        (fun (off, value, commit) ->
          Vista.begin_tx v;
          Vista.write_range v ~off [| value; value + 1 |];
          if commit then begin
            Vista.commit v;
            model.(off) <- value;
            model.(off + 1) <- value + 1
          end
          else Vista.abort v)
        history;
      let commits_before = Vista.commits v and aborts_before = Vista.aborts v in
      (* the final transaction, with a crash armed inside commit *)
      Vista.begin_tx v;
      List.iter
        (fun (off, value) -> Vista.write_range v ~off [| value; value |])
        final_writes;
      let writes = ref 0 in
      Rio.set_on_write r
        (Some
           (fun _ _ ->
             if !writes >= crash_after then raise (Rio.Crash_point !writes);
             incr writes));
      let crashed =
        match Vista.commit v with
        | () -> false
        | exception Rio.Crash_point _ -> true
      in
      Rio.set_on_write r None;
      let committed = Vista.commits v > commits_before in
      (* recovery is a pure function of region words *)
      let v2 = Vista.create ~data_words:32 r in
      let log_was_published = Vista.log_words v2 > 0 in
      Vista.recover v2;
      if committed && not crashed then
        (* commit point passed before the armed crash *)
        List.iter
          (fun (off, value) ->
            model.(off) <- value;
            model.(off + 1) <- value)
          final_writes;
      Array.to_list (Rio.sub r ~off:0 ~len:32) = Array.to_list model
      && Vista.commits v2 = commits_before + (if crashed then 0 else 1)
      && Vista.aborts v2
         = aborts_before + (if crashed && log_was_published then 1 else 0))

(* The unhooked blit fast path (one Array.blit) and the hooked
   word-by-word path must agree on accounting and contents. *)
let test_rio_fast_path_accounting () =
  let fast = Rio.create ~size:64 and hooked = Rio.create ~size:64 in
  let seen = ref 0 in
  Rio.set_on_write hooked (Some (fun _ _ -> incr seen));
  let src = Array.init 7 (fun i -> 100 + i) in
  Rio.blit_in fast ~off:3 src;
  Rio.blit_in hooked ~off:3 src;
  Rio.blit_sub_in fast ~off:20 src ~spos:2 ~len:4;
  Rio.blit_sub_in hooked ~off:20 src ~spos:2 ~len:4;
  Rio.copy_within fast ~src_off:3 ~dst_off:40 ~len:5;
  Rio.copy_within hooked ~src_off:3 ~dst_off:40 ~len:5;
  Alcotest.(check int) "words_written: fast path matches hooked path"
    (Rio.words_written hooked) (Rio.words_written fast);
  Alcotest.(check int) "hook saw every word" 16 !seen;
  Alcotest.(check bool) "identical contents" true
    (Rio.sub fast ~off:0 ~len:64 = Rio.sub hooked ~off:0 ~len:64)

(* Differential check of the paged, lazily allocated region against a
   flat [int array] model.  Sizes are never a multiple of the 64-word
   page, ranges cross page boundaries and often end exactly at the
   region's end, and some ranges run past it (both sides must refuse
   them before writing a word).  With a hook armed to raise after [k]
   words, both sides must keep the same torn prefix.  A range scan must
   answer as a word-by-word loop over the model does. *)
type rio_op =
  | R_write of int * int
  | R_blit of int * int array * int * int  (* off, src, spos, len *)
  | R_copy of int * int * int              (* src_off, dst_off, len *)
  | R_poke of int * int
  | R_read of int
  | R_sub of int * int
  | R_scan of int * int array * int * int * int * bool
      (* off, src, spos, len, from, differ *)

let show_rio_op = function
  | R_write (o, v) -> Printf.sprintf "write %d %d" o v
  | R_blit (o, src, sp, l) ->
      Printf.sprintf "blit off=%d src=%d spos=%d len=%d" o (Array.length src)
        sp l
  | R_copy (s, d, l) -> Printf.sprintf "copy %d->%d len=%d" s d l
  | R_poke (o, v) -> Printf.sprintf "poke %d %d" o v
  | R_read o -> Printf.sprintf "read %d" o
  | R_sub (o, l) -> Printf.sprintf "sub %d %d" o l
  | R_scan (o, src, sp, l, from, differ) ->
      Printf.sprintf "scan off=%d src=[%s] spos=%d len=%d from=%d differ=%b"
        o (String.concat ";" (Array.to_list (Array.map string_of_int src)))
        sp l from differ

let gen_rio_case =
  let open QCheck.Gen in
  let* size = map2 (fun k r -> (64 * k) + r) (0 -- 4) (1 -- 63) in
  let* hook = opt (0 -- 400) in
  let len = frequency [ (3, 0 -- 10); (2, 0 -- 150) ] in
  (* an offset for a range of [l] words: anywhere (possibly past the
     end), ending at the region's end, or at a page boundary *)
  let off l =
    frequency
      [ (4, 0 -- (size + 2)); (2, return (size - l));
        (1, map (fun p -> 64 * p) (0 -- (size / 64))) ]
  in
  let op =
    frequency
      [ (3, map2 (fun o v -> R_write (o, v)) (off 1) (1 -- 999));
        (3,
         let* l = len in
         let* o = off l in
         let* extra = 0 -- 3 in
         let* spos = 0 -- extra in
         let+ src = array_size (return (l + extra)) (1 -- 999) in
         R_blit (o, src, spos, l));
        (3,
         let* l = len in
         let* src = off l in
         let+ dst = off l in
         (* disjoint ranges, as the interface requires *)
         let l = if abs (src - dst) < l then abs (src - dst) else l in
         R_copy (src, dst, l));
        (1, map2 (fun o v -> R_poke (o, v)) (off 1) (1 -- 999));
        (2, map (fun o -> R_read o) (off 1));
        (2, let* l = len in map (fun o -> R_sub (o, l)) (off l));
        (2,
         (* mostly zeros, which untouched words match *)
         let* l = len in
         let* o = off l in
         let* spos = 0 -- 2 in
         let* src =
           array_size (return (spos + l))
             (frequency [ (3, return 0); (1, 1 -- 999) ])
         in
         let* from = -1 -- (l + 1) in
         let+ differ = bool in
         R_scan (o, src, spos, l, from, differ)) ]
  in
  let+ ops = list_size (0 -- 25) op in
  (size, hook, ops)

let arb_rio_case =
  QCheck.make gen_rio_case ~print:(fun (size, hook, ops) ->
      Printf.sprintf "size=%d hook=%s\n%s" size
        (match hook with None -> "none" | Some k -> string_of_int k)
        (String.concat "\n" (List.map show_rio_op ops)))

exception Model_crash

(* The model: every persisted word goes through [persist], which
   crashes after [budget] words exactly as the armed hook does. *)
let run_rio_model ~size ~hook ops =
  let m = Array.make size 0 and written = ref 0 and seen = ref 0 in
  let persist off v =
    (match hook with
     | Some k when !seen >= k -> raise Model_crash
     | _ -> incr seen);
    m.(off) <- v;
    incr written
  in
  let in_range off len = off >= 0 && len >= 0 && off + len <= size in
  let results = ref [] in
  let step = function
    | R_write (o, v) -> if in_range o 1 then persist o v else raise Exit
    | R_blit (o, src, sp, l) ->
        if not (in_range o l && sp + l <= Array.length src) then raise Exit;
        for i = 0 to l - 1 do persist (o + i) src.(sp + i) done
    | R_copy (s, d, l) ->
        if not (in_range s l && in_range d l) then raise Exit;
        for i = 0 to l - 1 do persist (d + i) m.(s + i) done
    | R_poke (o, v) -> if in_range o 1 then m.(o) <- v else raise Exit
    | R_read o ->
        if not (in_range o 1) then raise Exit;
        results := [ m.(o) ] :: !results
    | R_sub (o, l) ->
        if not (in_range o l) then raise Exit;
        results := Array.to_list (Array.sub m o l) :: !results
    | R_scan (o, src, sp, l, from, differ) ->
        if not (in_range o l && sp + l <= Array.length src) then raise Exit;
        let i = ref (max 0 from) in
        while !i < l && (m.(o + !i) <> src.(sp + !i)) <> differ do incr i done;
        results := [ !i ] :: !results
  in
  let crashed =
    List.exists
      (fun op ->
        match step op with
        | () -> false
        | exception Exit -> results := [ -1 ] :: !results; false
        | exception Model_crash -> true)
      ops
  in
  (Array.to_list m, !written, List.rev !results, crashed)

let run_rio ~size ~hook ops =
  let r = Rio.create ~size in
  let seen = ref 0 in
  Option.iter
    (fun k ->
      Rio.set_on_write r
        (Some
           (fun _ _ ->
             if !seen >= k then raise (Rio.Crash_point !seen);
             incr seen)))
    hook;
  let results = ref [] in
  let step = function
    | R_write (o, v) -> Rio.write r o v
    | R_blit (o, src, sp, l) -> Rio.blit_sub_in r ~off:o src ~spos:sp ~len:l
    | R_copy (s, d, l) -> Rio.copy_within r ~src_off:s ~dst_off:d ~len:l
    | R_poke (o, v) -> Rio.poke r o v
    | R_read o -> results := [ Rio.read r o ] :: !results
    | R_sub (o, l) -> results := Array.to_list (Rio.sub r ~off:o ~len:l) :: !results
    | R_scan (o, src, sp, l, from, differ) ->
        results :=
          [ Rio.scan r ~off:o src ~spos:sp ~len:l ~from ~differ ] :: !results
  in
  let crashed =
    List.exists
      (fun op ->
        match step op with
        | () -> false
        | exception Invalid_argument _ -> results := [ -1 ] :: !results; false
        | exception Rio.Crash_point _ -> true)
      ops
  in
  Rio.set_on_write r None;
  (Array.to_list (Rio.sub r ~off:0 ~len:size), Rio.words_written r,
   List.rev !results, crashed)

let prop_rio_matches_flat_model =
  QCheck.Test.make ~name:"paged rio matches a flat array model" ~count:500
    arb_rio_case (fun (size, hook, ops) ->
      run_rio ~size ~hook ops = run_rio_model ~size ~hook ops)

(* Untouched pages of every region read from one shared zero page: no
   store into one region, by any path, may show through in another. *)
let test_rio_zero_page_not_aliased () =
  let size = 300 in
  let r = Rio.create ~size in
  Rio.write r 5 1;
  Rio.blit_in r ~off:60 (Array.make 10 2);
  Rio.copy_within r ~src_off:60 ~dst_off:200 ~len:10;
  Rio.poke r 299 3;
  Rio.set_on_write r (Some (fun _ _ -> ()));
  Rio.blit_in r ~off:130 (Array.make 5 4);
  Rio.copy_within r ~src_off:130 ~dst_off:250 ~len:5;
  let fresh = Rio.create ~size in
  Alcotest.(check bool) "fresh region reads 0 everywhere" true
    (Array.for_all (( = ) 0) (Rio.sub fresh ~off:0 ~len:size));
  for off = 0 to size - 1 do
    if Rio.read fresh off <> 0 then Alcotest.failf "word %d is not 0" off
  done

(* qcheck: a diff-mode write is observationally equivalent to the
   whole-range write — same data image whether the transaction commits
   or aborts, for any overlap pattern between incoming and current
   words (small value range makes unchanged words common, so the run
   coalescing and the whole-range fallback both get exercised). *)
let prop_diff_mode_equivalence =
  QCheck.Test.make ~name:"diff-mode writes equal whole-range writes"
    ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_bound 8) (pair (0 -- 30) (0 -- 3)))
        (list_of_size (Gen.int_bound 8)
           (triple (0 -- 24) (0 -- 3) (In_range.int 1 8)))
        bool)
    (fun (base, tx_writes, commit) ->
      let mk () =
        let r = Rio.create ~size:256 in
        let v = Vista.create ~data_words:32 r in
        List.iter
          (fun (off, value) ->
            Vista.begin_tx v;
            Vista.write_range v ~off [| value |];
            Vista.commit v)
          base;
        (r, v)
      in
      let apply diff (r, v) =
        Vista.begin_tx v;
        List.iter
          (fun (off, value, len) ->
            Vista.write_range ~diff v ~off
              (Array.init len (fun i -> (value + i) mod 4)))
          tx_writes;
        if commit then Vista.commit v else Vista.abort v;
        Array.to_list (Rio.sub r ~off:0 ~len:32)
      in
      apply true (mk ()) = apply false (mk ()))

(* --- commit-path reference differential -------------------------------- *)

(* The reference diff-mode writer, built the plain way: one pass
   compares word by word and builds the list of coalesced changed runs
   (a gap of up to two unchanged words joins two runs), then the runs
   are written one whole-range record each, in ascending order, or the
   whole range when their headers would cost more log words. *)
let reference_changed_runs r ~off src ~spos ~len =
  let runs = ref [] in
  let run_start = ref (-1) and run_end = ref (-1) in
  let flush () =
    if !run_start >= 0 then
      runs := (!run_start, !run_end - !run_start + 1) :: !runs
  in
  for i = 0 to len - 1 do
    if src.(spos + i) <> Rio.read r (off + i) then begin
      if !run_start < 0 then run_start := i
      else if i - !run_end > 3 then begin
        flush ();
        run_start := i
      end;
      run_end := i
    end
  done;
  flush ();
  List.rev !runs

let reference_write_sub v ~off ~src ~spos ~len =
  let runs = reference_changed_runs (Vista.region v) ~off src ~spos ~len in
  let diff_log_words =
    List.fold_left (fun acc (_, rlen) -> acc + rlen + 2) 0 runs
  in
  if runs = [] then ()
  else if diff_log_words >= len + 2 then Vista.write_sub v ~off ~src ~spos ~len
  else
    List.iter
      (fun (start, rlen) ->
        Vista.write_sub v ~off:(off + start) ~src ~spos:(spos + start)
          ~len:rlen)
      runs

(* A base image, then one transaction of diff-mode writes: each a source
   array, the offset of its first word in it, and the data range it
   covers.  Most source words repeat the base image's, so the writes mix
   sparse runs, coalesced gaps, whole-range fallbacks and no-ops, and
   data areas up to 200 words make runs cross region pages. *)
let gen_commit_case =
  let open QCheck.Gen in
  let* data = 1 -- 200 in
  let* base = array_size (return data) (0 -- 3) in
  let write =
    let* off = 0 -- (data - 1) in
    let* len = 0 -- min 90 (data - off) in
    let* spos = 0 -- 3 in
    let+ words =
      array_size (return (spos + len + 2))
        (frequency [ (4, return None); (1, map Option.some (0 -- 3)) ])
    in
    let src =
      Array.mapi
        (fun j w ->
          match w with
          | Some x -> x
          | None ->
              let i = off + j - spos in
              if i >= 0 && i < data then base.(i) else 0)
        words
    in
    (off, src, spos, len)
  in
  let* writes = list_size (0 -- 6) write in
  let* commit = bool in
  let+ hook = bool in
  (base, writes, commit, hook)

let arb_commit_case =
  QCheck.make gen_commit_case ~print:(fun (base, writes, commit, hook) ->
      let ints a =
        String.concat ";" (Array.to_list (Array.map string_of_int a))
      in
      Printf.sprintf "base=[%s]\n%s\n%s, hook %b" (ints base)
        (String.concat "\n"
           (List.map
              (fun (off, src, spos, len) ->
                Printf.sprintf "write off=%d spos=%d len=%d src=[%s]" off spos
                  len (ints src))
              writes))
        (if commit then "commit" else "abort")
        hook)

(* The persisted-write sequence the hook records (empty without one),
   every region word (data and log area) and [words_written]. *)
let run_commit_case writer (base, writes, commit, hook) =
  let data = Array.length base in
  let r = Rio.create ~size:(data + 700) in
  let v = Vista.create ~data_words:data r in
  Vista.begin_tx v;
  Vista.write_range v ~off:0 base;
  Vista.commit v;
  let seen = ref [] in
  if hook then
    Rio.set_on_write r (Some (fun off x -> seen := (off, x) :: !seen));
  Vista.begin_tx v;
  List.iter (fun (off, src, spos, len) -> writer v ~off ~src ~spos ~len) writes;
  if commit then Vista.commit v else Vista.abort v;
  Rio.set_on_write r None;
  (List.rev !seen, Array.to_list (Rio.sub r ~off:0 ~len:(Rio.size r)),
   Rio.words_written r)

let prop_diff_writer_matches_reference =
  QCheck.Test.make ~name:"diff writer matches the run-list reference"
    ~count:500 arb_commit_case (fun case ->
      run_commit_case (Vista.write_sub ~diff:true) case
      = run_commit_case reference_write_sub case)

(* Torture a diff-mode commit at every persisted word write: recovery
   over a fresh Vista must restore exactly the previous committed image
   (or, past the commit point, the new one) — never a hybrid. *)
let test_diff_commit_crash_every_word () =
  let data = 64 in
  let base = Array.init data (fun i -> (i * 3) + 1) in
  (* sparse changes: exercises run coalescing, not the fallback *)
  let incoming =
    Array.init data (fun i -> if i mod 5 = 0 then 7_000 + i else base.(i))
  in
  let run_with_crash point =
    let r = Rio.create ~size:512 in
    let v = Vista.create ~data_words:data r in
    Vista.begin_tx v;
    Vista.write_range v ~off:0 base;
    Vista.commit v;
    let commits_pre = Vista.commits v in
    Vista.begin_tx v;
    let writes = ref 0 in
    Rio.set_on_write r
      (Some
         (fun _ _ ->
           if !writes >= point then raise (Rio.Crash_point !writes);
           incr writes));
    let crashed =
      match
        Vista.write_range ~diff:true v ~off:0 incoming;
        Vista.commit v
      with
      | () -> false
      | exception Rio.Crash_point _ -> true
    in
    Rio.set_on_write r None;
    if crashed then begin
      let v2 = Vista.create ~data_words:data r in
      Vista.recover v2;
      let img = Array.to_list (Rio.sub r ~off:0 ~len:data) in
      let rolled_back =
        img = Array.to_list base && Vista.commits v2 = commits_pre
      in
      let committed =
        img = Array.to_list incoming && Vista.commits v2 = commits_pre + 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "crash point %d: pre or post image, never hybrid"
           point)
        true (rolled_back || committed)
    end;
    crashed
  in
  let point = ref 0 in
  while run_with_crash !point do
    incr point;
    if !point > 10_000 then Alcotest.fail "commit never completed"
  done;
  Alcotest.(check bool) "swept multiple crash points" true (!point > 10)

let tests =
  [
    Alcotest.test_case "rio basics" `Quick test_rio_basics;
    Alcotest.test_case "rio bounds" `Quick test_rio_bounds;
    Alcotest.test_case "rio write hook" `Quick test_rio_write_hook;
    Alcotest.test_case "vista commit" `Quick test_vista_commit;
    Alcotest.test_case "vista abort" `Quick test_vista_abort_restores;
    Alcotest.test_case "vista crash mid-commit" `Quick
      test_vista_crash_mid_commit;
    Alcotest.test_case "vista recovery from region alone" `Quick
      test_vista_recovery_from_region_alone;
    Alcotest.test_case "vista data-area bounds" `Quick
      test_vista_outside_data_area_rejected;
    Alcotest.test_case "vista nesting" `Quick test_vista_nesting_rejected;
    Alcotest.test_case "disk costs" `Quick test_disk_costs;
    Alcotest.test_case "rio fast-path accounting" `Quick
      test_rio_fast_path_accounting;
    Alcotest.test_case "diff commit crash at every word" `Quick
      test_diff_commit_crash_every_word;
    QCheck_alcotest.to_alcotest prop_vista_atomicity;
    QCheck_alcotest.to_alcotest prop_crash_point_atomicity;
    QCheck_alcotest.to_alcotest prop_diff_mode_equivalence;
    Alcotest.test_case "rio zero page not aliased" `Quick
      test_rio_zero_page_not_aliased;
    QCheck_alcotest.to_alcotest prop_rio_matches_flat_model;
  ]

let () =
  Alcotest.run "ft_stablemem"
    [ ("stablemem", tests);
      ("reference",
       [ QCheck_alcotest.to_alcotest prop_diff_writer_matches_reference ]) ]
