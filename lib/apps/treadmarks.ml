(** TreadMarks: a software distributed shared memory system running a
    direct-sum N-body simulation (paper §3, Figure 8d).

    Four processes share an array of bodies through a page-based DSM with
    release consistency, implemented entirely in the mini-language:

    - pid 0 is the {e manager}: it holds the master copy of the shared
      space and serves page-fetch requests (it is also worker 0);
    - a read of an absent page sends a request and receives the page a
      word at a time (copious receive ND — in real TreadMarks these are
      SIGSEGV- and SIGIO-driven, which is why so much of the ND in
      Figure 8d cannot be logged);
    - writes are buffered locally at word granularity (the dirty-word
      diffs of TreadMarks) and shipped to the manager at each barrier;
    - the barrier applies all diffs to the master copy and invalidates
      every cached page, so each iteration reads exactly the previous
      barrier's state — making the computation deterministic regardless
      of message timing.

    Each worker computes its slice of the bodies by O(N^2) direct
    summation in fixed point, reading every other body through the DSM.
    At the shipped sizes every force truncates to zero: the numerator
    [mass * 1000] is below 10^6 while the closest pair's squared distance
    is about 2.8 * 10^6.  So no body ever moves and every progress line
    carries the same checksum.  Figure 8d counts commits and ND events,
    and that mix depends on the page traffic, not on the forces.

    The per-interaction [gettimeofday] "profiling timer" supplies the
    transient unloggable ND that keeps CAND-LOG's commit count high, and
    the manager prints one progress line per iteration plus a final
    checksum — the tiny visible-event count that makes the 2PC protocols
    the big win for this application, exactly as in the paper. *)

open Ft_vm.Asm

type params = { bodies : int; iters : int }

let default_params = { bodies = 32; iters = 10 }
let small_params = { bodies = 12; iters = 3 }

let nprocs = 4
let body_words = 5 (* x, y, vx, vy, mass *)
let dsm_page = 16

(* Heap layout (same on every process; master area used by pid 0 only). *)
let h_arrived = 1
let h_pendn = 2
let h_sig = 3
let h_stats = 4
let local_base = 64
let shared_cap = 4_096
let present_base = local_base + shared_cap
let dirtyw_base = present_base + 256
let pend_base = dirtyw_base + shared_cap
let master_base = 11_264
let heap_words = 16_384

(* Message encoding: [kind * 2^40 + field * 2^28 + (value + 2^27)]. *)
let m_kind = 1 lsl 40
let m_field = 1 lsl 28
let m_bias = 1 lsl 27
let k_req = 1
let k_word = 2
let k_diff = 3
let k_arrive = 4
let k_release = 5

let enc_req page = Int (k_req * m_kind) +: page
let enc2 kind field value =
  Int (kind * m_kind) +: (field *: Int m_field) +: (value +: Int m_bias)
let dec_kind v = v /: Int m_kind
let dec_field v = (v %: Int m_kind) /: Int m_field
let dec_value v = (v %: Int m_field) -: Int m_bias

let program ~params:p ~pid =
  let n = p.bodies in
  let bodies_words = n * body_words in
  if bodies_words > shared_cap then
    invalid_arg "Treadmarks.program: too many bodies for the shared area";
  let n_pages = (bodies_words + dsm_page - 1) / dsm_page in
  let is_mgr = pid = 0 in
  let chunk = n / nprocs in
  let lo = pid * chunk and hi = if pid = nprocs - 1 then n else (pid + 1) * chunk in
  let local a = Int local_base +: a in
  let master a = Int master_base +: a in
  let present pg = Int present_base +: pg in
  let dirtyw a = Int dirtyw_base +: a in
  let fns = ref [] in
  let def f = fns := f :: !fns in

  def (func ~is_handler:true "on_signal" []
         [ Set_heap (Int h_sig, Deref (Int h_sig) +: Int 1) ]);

  (* Fetch a page into the local cache, skipping locally-dirty words
     (diff merging).  The manager copies from its master area; workers
     request the page from the manager and receive it word by word. *)
  def (func "fetch_page" [ "pg" ]
         [
           If
             ( Deref (present (Var "pg")) =: Int 0,
               (if is_mgr then
                  [
                    Let ("idx", Int 0);
                    While
                      ( Var "idx" <: Int dsm_page,
                        [
                          Let ("a", (Var "pg" *: Int dsm_page) +: Var "idx");
                          If (Deref (dirtyw (Var "a")) =: Int 0,
                              [ Set_heap (local (Var "a"),
                                          Deref (master (Var "a"))) ],
                              []);
                          Set ("idx", Var "idx" +: Int 1);
                        ] );
                    Set_heap (present (Var "pg"), Int 1);
                  ]
                else
                  [
                    Send_msg (Int 0, enc_req (Var "pg"));
                    Let ("j", Int 0);
                    Let ("v", Int 0);
                    Let ("src", Int 0);
                    While
                      ( Var "j" <: Int dsm_page,
                        [
                          Recv_msg ("v", "src");
                          Check (dec_kind (Var "v") =: Int k_word);
                          Let ("a", (Var "pg" *: Int dsm_page)
                                    +: dec_field (Var "v"));
                          If (Deref (dirtyw (Var "a")) =: Int 0,
                              [ Set_heap (local (Var "a"),
                                          dec_value (Var "v")) ],
                              []);
                          Set ("j", Var "j" +: Int 1);
                        ] );
                    Set_heap (present (Var "pg"), Int 1);
                  ]),
               [] );
         ]);

  def (func "dsm_read" [ "a" ]
         [
           Expr (Call ("fetch_page", [ Var "a" /: Int dsm_page ]));
           Return (Deref (local (Var "a")));
         ]);

  def (func "dsm_write" [ "a"; "v" ]
         [
           Set_heap (local (Var "a"), Var "v");
           Set_heap (dirtyw (Var "a"), Int 1);
         ]);

  if is_mgr then begin
    (* Serve one page to a worker, a word per message. *)
    def (func "serve_page" [ "pg"; "dst" ]
           [
             Let ("idx", Int 0);
             While
               ( Var "idx" <: Int dsm_page,
                 [
                   Let ("a", (Var "pg" *: Int dsm_page) +: Var "idx");
                   Send_msg (Var "dst",
                             enc2 k_word (Var "idx") (Deref (master (Var "a"))));
                   Set ("idx", Var "idx" +: Int 1);
                 ] );
           ]);
    (* Drain pending requests/diffs/arrivals without blocking; diffs are
       buffered and applied only at the barrier so every iteration reads
       exactly the previous barrier's state. *)
    def (func "poll" []
           [
             Let ("v", Int 0);
             Let ("src", Int 0);
             Let ("go", Int 1);
             While
               ( Var "go",
                 [
                   Try_recv_msg ("v", "src");
                   If
                     ( Var "v" <: Int 0,
                       [ Set ("go", Int 0) ],
                       [
                         Let ("kind", dec_kind (Var "v"));
                         If (Var "kind" =: Int k_req,
                             [ Expr (Call ("serve_page",
                                           [ Var "v" %: Int m_kind;
                                             Var "src" ])) ],
                             []);
                         If (Var "kind" =: Int k_diff,
                             [
                               Let ("pn", Deref (Int h_pendn));
                               Check (Var "pn" <: Int 2048);
                               Set_heap (Int pend_base +: Var "pn", Var "v");
                               Set_heap (Int h_pendn, Var "pn" +: Int 1);
                             ],
                             []);
                         If (Var "kind" =: Int k_arrive,
                             [ Set_heap (Int h_arrived,
                                         Deref (Int h_arrived) +: Int 1) ],
                             []);
                       ] );
                 ] );
           ]);
    def (func "apply_diff" [ "v" ]
           [
             Set_heap (master (dec_field (Var "v")), dec_value (Var "v"))
           ])
  end;

  (* Barrier.  Workers ship dirty-word diffs and wait for the release;
     the manager folds its own dirty words and everyone's diffs into the
     master copy, then releases.  All processes invalidate their cache. *)
  def (func "barrier" []
         ((if is_mgr then
             [
               (* own dirty words straight into the master *)
               Let ("a", Int 0);
               While
                 ( Var "a" <: Int bodies_words,
                   [
                     If (Deref (dirtyw (Var "a")) <>: Int 0,
                         [ Set_heap (master (Var "a"),
                                     Deref (local (Var "a")));
                           Set_heap (dirtyw (Var "a"), Int 0) ],
                         []);
                     Set ("a", Var "a" +: Int 1);
                   ] );
               (* diffs buffered by poll *)
               Let ("i", Int 0);
               While
                 ( Var "i" <: Deref (Int h_pendn),
                   [
                     Expr (Call ("apply_diff",
                                 [ Deref (Int pend_base +: Var "i") ]));
                     Set ("i", Var "i" +: Int 1);
                   ] );
               Set_heap (Int h_pendn, Int 0);
               (* wait for the stragglers, serving requests meanwhile *)
               Let ("v", Int 0);
               Let ("src", Int 0);
               While
                 ( Deref (Int h_arrived) <: Int (nprocs - 1),
                   [
                     Recv_msg ("v", "src");
                     Let ("kind", dec_kind (Var "v"));
                     If (Var "kind" =: Int k_req,
                         [ Expr (Call ("serve_page",
                                       [ Var "v" %: Int m_kind; Var "src" ])) ],
                         []);
                     If (Var "kind" =: Int k_diff,
                         [ Expr (Call ("apply_diff", [ Var "v" ])) ], []);
                     If (Var "kind" =: Int k_arrive,
                         [ Set_heap (Int h_arrived,
                                     Deref (Int h_arrived) +: Int 1) ],
                         []);
                   ] );
               Set_heap (Int h_arrived, Int 0);
               Send_msg (Int 1, Int (k_release * m_kind));
               Send_msg (Int 2, Int (k_release * m_kind));
               Send_msg (Int 3, Int (k_release * m_kind));
             ]
           else
             [
               Let ("a", Int 0);
               While
                 ( Var "a" <: Int bodies_words,
                   [
                     If (Deref (dirtyw (Var "a")) <>: Int 0,
                         [
                           Send_msg (Int 0,
                                     enc2 k_diff (Var "a")
                                       (Deref (local (Var "a"))));
                           Set_heap (dirtyw (Var "a"), Int 0);
                         ],
                         []);
                     Set ("a", Var "a" +: Int 1);
                   ] );
               Send_msg (Int 0, Int (k_arrive * m_kind));
               Let ("v", Int 0);
               Let ("src", Int 0);
               Recv_msg ("v", "src");
               Check (dec_kind (Var "v") =: Int k_release);
             ])
          @ [
              (* release consistency: invalidate every cached page *)
              Let ("pg", Int 0);
              While
                ( Var "pg" <: Int n_pages,
                  [
                    Set_heap (present (Var "pg"), Int 0);
                    Set ("pg", Var "pg" +: Int 1);
                  ] );
            ]));

  (* One body's force computation and update (direct-sum gravity in
     fixed point).  The per-interaction timer read is the transient,
     unloggable ND of the profiled original. *)
  def (func "compute_body" [ "b" ]
         [
           Let ("base", Var "b" *: Int body_words);
           Let ("x", Call ("dsm_read", [ Var "base" ]));
           Let ("y", Call ("dsm_read", [ Var "base" +: Int 1 ]));
           Let ("ax", Int 0);
           Let ("ay", Int 0);
           Let ("o", Int 0);
           While
             ( Var "o" <: Int n,
               [
                 If
                   ( Var "o" <>: Var "b",
                     [
                       Let ("ob", Var "o" *: Int body_words);
                       Let ("ox", Call ("dsm_read", [ Var "ob" ]));
                       Let ("oy", Call ("dsm_read", [ Var "ob" +: Int 1 ]));
                       Let ("om", Call ("dsm_read", [ Var "ob" +: Int 4 ]));
                       Let ("dx", Var "ox" -: Var "x");
                       Let ("dy", Var "oy" -: Var "y");
                       Let ("d2",
                            (Var "dx" *: Var "dx") +: (Var "dy" *: Var "dy")
                            +: Int 100);
                       Let ("f", (Var "om" *: Int 1000) /: Var "d2");
                       Set ("ax", Var "ax" +: ((Var "f" *: Var "dx") /: Int 100));
                       Set ("ay", Var "ay" +: ((Var "f" *: Var "dy") /: Int 100));
                       (* profiling timer *)
                       Set_heap (Int h_stats,
                                 (Deref (Int h_stats) +: (Time %: Int 1000))
                                 %: Int 1_000_003);
                     ],
                     [] );
                 Set ("o", Var "o" +: Int 1);
               ] );
           Let ("vx", Call ("dsm_read", [ Var "base" +: Int 2 ]) +: Var "ax");
           Let ("vy", Call ("dsm_read", [ Var "base" +: Int 3 ]) +: Var "ay");
           Set ("vx", Var "vx" %: Int 1000);
           Set ("vy", Var "vy" %: Int 1000);
           Expr (Call ("dsm_write", [ Var "base" +: Int 2; Var "vx" ]));
           Expr (Call ("dsm_write", [ Var "base" +: Int 3; Var "vy" ]));
           Expr (Call ("dsm_write",
                       [ Var "base";
                         ((Var "x" +: Var "vx" +: Int 1_000_000)
                          %: Int 100_000) ]));
           Expr (Call ("dsm_write",
                       [ Var "base" +: Int 1;
                         ((Var "y" +: Var "vy" +: Int 1_000_000)
                          %: Int 100_000) ]));
         ]);

  if is_mgr then
    def (func "master_checksum" []
           [
             Let ("sum", Int 0);
             Let ("a", Int 0);
             While
               ( Var "a" <: Int bodies_words,
                 [
                   Set ("sum",
                        ((Var "sum" *: Int 31) +: Deref (master (Var "a")))
                        %: Int 1_000_003);
                   Set ("a", Var "a" +: Int 1);
                 ] );
             Return (Var "sum");
           ]);

  def (func "main" []
         ([ Sigaction "on_signal" ]
          @ (if is_mgr then
               [
                 (* deterministic initial conditions, straight into the
                    master copy *)
                 Let ("b", Int 0);
                 While
                   ( Var "b" <: Int n,
                     [
                       Let ("base", Var "b" *: Int body_words);
                       Set_heap (master (Var "base"),
                                 (Var "b" *: Int 937) %: Int 100_000);
                       Set_heap (master (Var "base" +: Int 1),
                                 (Var "b" *: Int 1389) %: Int 100_000);
                       Set_heap (master (Var "base" +: Int 2), Int 0);
                       Set_heap (master (Var "base" +: Int 3), Int 0);
                       Set_heap (master (Var "base" +: Int 4),
                                 Int 100 +: ((Var "b" *: Int 53) %: Int 900));
                       Set ("b", Var "b" +: Int 1);
                     ] );
               ]
             else [])
          @ [
              Let ("it", Int 0);
              While
                ( Var "it" <: Int p.iters,
                  [
                    Let ("b", Int lo);
                    While
                      ( Var "b" <: Int hi,
                        ([ Expr (Call ("compute_body", [ Var "b" ])) ]
                         @ (if is_mgr then [ Expr (Call ("poll", [])) ]
                            else [])
                         @ [ Set ("b", Var "b" +: Int 1) ]) );
                    Expr (Call ("barrier", []));
                    Set ("it", Var "it" +: Int 1);
                  ]
                  @
                  if is_mgr then
                    [ Output ((Var "it" *: Int 10_000)
                              +: (Call ("master_checksum", []) %: Int 9973)) ]
                  else [] );
            ]
          @
          if is_mgr then [ Output (Call ("master_checksum", [])) ] else []))

  ;
  Ft_vm.Asm.program (List.rev !fns)

let workload ?(params = default_params) () =
  let programs =
    Array.init nprocs (fun pid -> Ft_vm.Asm.compile (program ~params ~pid))
  in
  Workload.make ~name:"treadmarks" ~nprocs ~programs ~heap_words
    ~configure:(fun k ->
      for pid = 0 to nprocs - 1 do
        Ft_os.Kernel.set_timer_signal k pid ~period_ns:40_000_000
          ~first_at:(20_000_000 + (pid * 5_000_000))
      done)
    ()
