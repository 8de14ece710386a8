(** Crash-point torture: verify recovery at every word write of a
    commit.

    The failure-transparency argument leans entirely on one mechanism:
    a checkpoint commit interrupted between ANY two persisted word
    writes must recover to exactly the previous committed image or the
    new one — never a hybrid.  The paper asserts this of Vista's
    undo-log discipline (§3); this harness checks it.

    One torture point [k] is a full experiment: build a fresh kernel,
    machine and checkpointer, take checkpoint zero, dirty a multi-page
    working set, then re-execute the second commit with a
    {!Ft_faults.Mem_injector} armed to crash after exactly [k]
    persisted words.  Recovery then runs over a {e freshly created}
    Vista segment on the old region — the persisted words are its sole
    input — and the recovered data image plus commits counter must
    equal the pre-commit or post-commit capture, bit for bit.

    The sweep over [k = 0 .. W] (or a seeded sample) fans out over
    {!Ft_exp.Exp} jobs, so it parallelizes with [-j] and resumes from a
    warm results store like every other experiment in the repo. *)

module Rio = Ft_stablemem.Rio
module Vista = Ft_stablemem.Vista
module Checkpointer = Ft_runtime.Checkpointer

type scenario = {
  heap_words : int;
  stack_words : int;
  page_size : int;
  dirty_pages : int;   (* pages rewritten between the two commits *)
  stack_depth : int;   (* live stack words at the instrumented commit *)
  seed : int;
}

(* A properly multi-page commit: 16 dirty pages of 64 words, plus stack,
   metadata and kernel state — a couple of thousand crash points. *)
let default_scenario =
  {
    heap_words = 2048;
    stack_words = 64;
    page_size = 64;
    dirty_pages = 16;
    stack_depth = 24;
    seed = 1;
  }

type points = All | Sample of int

type verdict =
  | Rolled_back          (* recovered image = pre-commit checkpoint *)
  | Committed            (* recovered image = post-commit checkpoint *)
  | Violation of string  (* hybrid image, or recovery itself failed *)

(* The rig for one experiment: everything fresh, everything derived
   from the scenario seed, so any two builds are word-identical. *)
type rig = {
  machine : Ft_vm.Machine.t;
  kernel : Ft_os.Kernel.t;
  ckpt : Checkpointer.t;
}

let fill_initial sc (m : Ft_vm.Machine.t) rng =
  let heap = Ft_vm.Machine.heap m in
  (* Non-zero words on every page, so stale log bodies never happen to
     replay back to a valid image. *)
  for p = 0 to (sc.heap_words / sc.page_size) - 1 do
    for i = 0 to 3 do
      Ft_vm.Memory.write heap
        ((p * sc.page_size) + i)
        (1 + Random.State.int rng 1_000_000)
    done
  done

let mutate sc (m : Ft_vm.Machine.t) rng =
  let heap = Ft_vm.Machine.heap m in
  let npages = sc.heap_words / sc.page_size in
  for d = 0 to sc.dirty_pages - 1 do
    let p = d * npages / sc.dirty_pages in
    for i = 0 to sc.page_size - 1 do
      Ft_vm.Memory.write heap
        ((p * sc.page_size) + i)
        (1 + Random.State.int rng 1_000_000)
    done
  done;
  for i = 0 to sc.stack_depth - 1 do
    m.Ft_vm.Machine.stack.(i) <- 1 + Random.State.int rng 1_000_000
  done;
  m.Ft_vm.Machine.sp <- sc.stack_depth;
  for r = 0 to Ft_vm.Instr.num_regs - 1 do
    Ft_vm.Machine.set_reg m r (Random.State.int rng 1_000_000)
  done;
  m.Ft_vm.Machine.icount <- 1 + Random.State.int rng 10_000

let commit_once rig =
  Checkpointer.commit rig.ckpt ~pid:0 ~machine:rig.machine
    ~kstate:(Ft_os.Kernel.snapshot_kstate rig.kernel 0)

(* Build the rig, take checkpoint zero and dirty the working set: the
   next {!commit_once} is the instrumented commit. *)
let prepare ?defect sc =
  let rng = Random.State.make [| sc.seed; 0x70_72 |] in
  let kernel = Ft_os.Kernel.create ~seed:sc.seed ~nprocs:1 () in
  let machine =
    Ft_vm.Machine.create ~stack_size:sc.stack_words ~heap_size:sc.heap_words
      ~page_size:sc.page_size [| Ft_vm.Instr.Halt |]
  in
  let ckpt =
    Checkpointer.create ~page_size:sc.page_size ~medium:Checkpointer.Reliable_memory
      ~nprocs:1 ~heap_words:sc.heap_words ~stack_words:sc.stack_words ()
  in
  let rig = { machine; kernel; ckpt } in
  fill_initial sc machine rng;
  ignore (commit_once rig);
  mutate sc machine rng;
  Vista.inject_defect (Checkpointer.vista ckpt ~pid:0) defect;
  rig

let region_of rig = Vista.region (Checkpointer.vista rig.ckpt ~pid:0)

(* The atomicity criterion compares the transactional data area (heap,
   stack, metadata, kernel state) plus the persisted commits counter. *)
let capture rig =
  let v = Checkpointer.vista rig.ckpt ~pid:0 in
  (Rio.sub (Vista.region v) ~off:0 ~len:(Vista.data_words v), Vista.commits v)

(* Run the instrumented commit uninterrupted: its word-write count [W]
   (crash points are [0..W]) and the committed image. *)
let measure ?defect sc =
  let rig = prepare ?defect sc in
  let inj = Ft_faults.Mem_injector.attach (region_of rig) in
  ignore (commit_once rig);
  let w = Ft_faults.Mem_injector.writes inj in
  Ft_faults.Mem_injector.detach inj;
  (w, capture rig)

(* One torture point: crash the commit after exactly [point] persisted
   words, recover through a fresh Vista over the old region, and demand
   the pre- or post-commit image. *)
let torture_point ?defect sc ~post ~point =
  let rig = prepare ?defect sc in
  let region = region_of rig in
  let data_words = Vista.data_words (Checkpointer.vista rig.ckpt ~pid:0) in
  let pre = capture rig in
  let inj = Ft_faults.Mem_injector.attach region in
  Ft_faults.Mem_injector.arm_crash inj ~after:point;
  let crashed =
    match commit_once rig with
    | _ -> false
    | exception Rio.Crash_point _ -> true
  in
  Ft_faults.Mem_injector.detach inj;
  match
    let fresh = Vista.create ~data_words region in
    Vista.recover fresh;
    (Rio.sub region ~off:0 ~len:data_words, Vista.commits fresh)
  with
  | state ->
      if state = pre then Rolled_back
      else if state = post then Committed
      else
        Violation
          (Printf.sprintf "hybrid image after %s commit"
             (if crashed then "crashed" else "completed"))
  | exception e -> Violation ("recovery raised: " ^ Printexc.to_string e)

(* The swept crash points: exhaustive, or a seeded sample that always
   includes both endpoints. *)
let points_list ~total_writes ~points ~seed =
  match points with
  | All -> List.init (total_writes + 1) Fun.id
  | Sample n ->
      let rng = Random.State.make [| seed; 0x73_6d |] in
      let tbl = Hashtbl.create n in
      Hashtbl.replace tbl 0 ();
      Hashtbl.replace tbl total_writes ();
      let budget = ref (n * 4) in
      while Hashtbl.length tbl < min n (total_writes + 1) && !budget > 0 do
        decr budget;
        Hashtbl.replace tbl (Random.State.int rng (total_writes + 1)) ()
      done;
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* --- the sweep, on the experiment runner -------------------------------- *)

let chunk_size = 64

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: chunks n rest

let scenario_tag sc =
  Printf.sprintf "h%d-s%d-p%d-d%d-k%d" sc.heap_words sc.stack_words
    sc.page_size sc.dirty_pages sc.stack_depth

let job_key sc ~defective ~total_writes ~idx =
  Printf.sprintf "torture/%s/seed=%d%s/w=%d/chunk=%d" (scenario_tag sc)
    sc.seed
    (if defective then "/defect" else "")
    total_writes idx

(* Every chunk of the swept crash points with its job key: [jobs] and
   [of_records] both walk it. *)
let chunk_keys ?defect ~points ~total_writes sc =
  List.mapi
    (fun idx chunk ->
      (job_key sc ~defective:(defect <> None) ~total_writes ~idx, chunk))
    (chunks chunk_size (points_list ~total_writes ~points ~seed:sc.seed))

let jobs ?defect ~points ~total_writes ~post sc =
  List.map
    (fun (key, chunk) ->
      Ft_exp.Job.make ~key ~seed:sc.seed (fun () ->
          let rolled = ref 0 and committed = ref 0 and bad = ref [] in
          List.iter
            (fun point ->
              match torture_point ?defect sc ~post ~point with
              | Rolled_back -> incr rolled
              | Committed -> incr committed
              | Violation msg -> bad := (point, msg) :: !bad)
            chunk;
          Ft_exp.Jstore.Obj
            [
              ("explored", Ft_exp.Jstore.Int (List.length chunk));
              ("rolled_back", Ft_exp.Jstore.Int !rolled);
              ("committed", Ft_exp.Jstore.Int !committed);
              ( "violations",
                Ft_exp.Jstore.List
                  (List.rev_map
                     (fun (p, m) ->
                       Ft_exp.Jstore.Obj
                         [
                           ("point", Ft_exp.Jstore.Int p);
                           ("msg", Ft_exp.Jstore.String m);
                         ])
                     !bad) );
            ]))
    (chunk_keys ?defect ~points ~total_writes sc)

type report = {
  scenario : scenario;
  total_writes : int;  (* word writes in the instrumented commit *)
  explored : int;
  rolled_back : int;
  committed : int;
  violations : (int * string) list;  (* crash point, diagnosis *)
}

let of_records ?defect ~points ~total_writes sc lookup =
  let explored = ref 0
  and rolled = ref 0
  and committed = ref 0
  and bad = ref [] in
  List.iter
    (fun (key, _) ->
      match lookup key with
      | None -> ()
      | Some v ->
          explored := !explored + Ft_exp.Jstore.get_int "explored" v;
          rolled := !rolled + Ft_exp.Jstore.get_int "rolled_back" v;
          committed := !committed + Ft_exp.Jstore.get_int "committed" v;
          Option.iter
            (List.iter (fun o ->
                 bad :=
                   ( Ft_exp.Jstore.get_int "point" o,
                     Ft_exp.Jstore.get_str "msg" o )
                   :: !bad))
            (Option.bind (Ft_exp.Jstore.member "violations" v)
               Ft_exp.Jstore.to_list))
    (chunk_keys ?defect ~points ~total_writes sc);
  {
    scenario = sc;
    total_writes;
    explored = !explored;
    rolled_back = !rolled;
    committed = !committed;
    violations = List.sort compare !bad;
  }

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b (Report.section "Crash-point torture");
  Buffer.add_string b
    (Printf.sprintf
       "Commit under test: %d dirty pages of %d words, %d stack words \
        (scenario %s, seed %d)\n\
        Word writes in the commit: %d  (crash points 0..%d)\n\n"
       r.scenario.dirty_pages r.scenario.page_size r.scenario.stack_depth
       (scenario_tag r.scenario) r.scenario.seed r.total_writes
       r.total_writes);
  Buffer.add_string b
    (Report.table
       ~headers:[ "crash points"; "rolled back"; "committed"; "violations" ]
       ~rows:
         [
           [
             string_of_int r.explored;
             string_of_int r.rolled_back;
             string_of_int r.committed;
             string_of_int (List.length r.violations);
           ];
         ]);
  if r.violations <> [] then begin
    Buffer.add_string b "\nViolations (crash point: diagnosis):\n";
    List.iteri
      (fun i (p, m) ->
        if i < 20 then
          Buffer.add_string b (Printf.sprintf "  %6d: %s\n" p m))
      r.violations;
    if List.length r.violations > 20 then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more\n"
           (List.length r.violations - 20))
  end
  else
    Buffer.add_string b
      "\nEvery crash point recovered to a committed image; no hybrids.\n";
  Buffer.contents b
