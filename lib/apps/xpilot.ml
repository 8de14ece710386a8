(** xpilot: a distributed, real-time multi-player game (paper §3,
    Figure 8c).

    One server (pid 0) and three clients (pids 1-3) in lock-step frames
    targeting 15 frames per second.  Each frame: every client sends its
    control input (a transient ND "joystick" read) to the server and
    blocks for the new world state; the server collects the three inputs
    (message-order ND), advances the physics of its entities — reading
    the frame clock per entity, the copious transient unloggable ND that
    keeps CAND and CAND-LOG commit rates high in Figure 8c — and
    broadcasts the state; each client renders a frame (visible) and
    sleeps out the rest of its 66.7 ms frame budget.

    The harness reports sustainable frame rate (visible events per
    simulated second): commit latency eats into the frame budget, which
    is how DC-disk drops below 15 fps exactly as in the paper. *)

open Ft_vm.Asm

let nprocs = 4
let entities = 10
let h_frame = 0
let h_score = 1
let ent_base = 16    (* per entity: x, y, vx, vy *)
let heap_words = 8_192
let frame_us = 66_667

type params = { frames : int }

let default_params = { frames = 300 }
let small_params = { frames = 40 }

let ent_field e f = Int ent_base +: ((e *: Int 4) +: Int f)

let server_program p =
  Ft_vm.Asm.program
    [
      (* Advance one entity using the frame clock as its physics jitter
         source (ND that cannot be logged away). *)
      func "advance" [ "e"; "steer" ]
        [
          Let ("t", Time);
          Let ("x", Deref (ent_field (Var "e") 0));
          Let ("y", Deref (ent_field (Var "e") 1));
          Let ("vx", Deref (ent_field (Var "e") 2));
          Let ("vy", Deref (ent_field (Var "e") 3));
          Set ("vx",
               ((Var "vx" +: (Var "steer" %: Int 5)) -: Int 2) %: Int 50);
          Set ("vy", (Var "vy" +: (Var "t" %: Int 3)) %: Int 50);
          Set ("x", (Var "x" +: Var "vx" +: Int 10_000) %: Int 1_000);
          Set ("y", (Var "y" +: Var "vy" +: Int 10_000) %: Int 1_000);
          Set_heap (ent_field (Var "e") 0, Var "x");
          Set_heap (ent_field (Var "e") 1, Var "y");
          Set_heap (ent_field (Var "e") 2, Var "vx");
          Set_heap (ent_field (Var "e") 3, Var "vy");
          (* the per-entity timer is read again at the end of the step *)
          Set_heap (Int h_score,
                    (Deref (Int h_score) +: (Time -: Var "t")) %: Int 65_536);
        ];
      func "world_hash" []
        [
          Let ("sum", Int 0);
          Let ("i", Int 0);
          While
            ( Var "i" <: Int (entities * 4),
              [
                Set ("sum",
                     ((Var "sum" *: Int 13) +: Deref (Int ent_base +: Var "i"))
                     %: Int 100_000);
                Set ("i", Var "i" +: Int 1);
              ] );
          Return (Var "sum");
        ];
      func "main" []
        [
          Let ("f", Int 0);
          Let ("v", Int 0);
          Let ("src", Int 0);
          Let ("steer", Int 0);
          While
            ( Var "f" <: Int p.frames,
              [
                (* collect the three client inputs, in arrival order *)
                Set ("steer", Int 0);
                Let ("i", Int 0);
                While
                  ( Var "i" <: Int 3,
                    [
                      Recv_msg ("v", "src");
                      Set ("steer", Var "steer" +: Var "v");
                      Set ("i", Var "i" +: Int 1);
                    ] );
                (* physics *)
                Let ("e", Int 0);
                While
                  ( Var "e" <: Int entities,
                    [
                      Expr (Call ("advance", [ Var "e"; Var "steer" ]));
                      Set ("e", Var "e" +: Int 1);
                    ] );
                (* broadcast world state *)
                Let ("h", Call ("world_hash", []));
                Send_msg (Int 1, Var "h");
                Send_msg (Int 2, Var "h");
                Send_msg (Int 3, Var "h");
                Set ("f", Var "f" +: Int 1);
                Set_heap (Int h_frame, Var "f");
              ] );
        ];
    ]

let client_program p =
  Ft_vm.Asm.program
    [
      func "main" []
        [
          Let ("f", Int 0);
          Let ("state", Int 0);
          Let ("src", Int 0);
          Let ("t", Int 0);
          Let ("target", Int 0);
          While
            ( Var "f" <: Int p.frames,
              [
                (* joystick sample: transient ND *)
                Send_msg (Int 0, Rand %: Int 10);
                Recv_msg ("state", "src");
                (* render the frame *)
                Output ((Var "f" *: Int 100_000) +: Var "state");
                (* sleep out the frame budget *)
                Set ("t", Time);
                Set ("target", (Var "f" +: Int 1) *: Int frame_us);
                If (Var "t" <: Var "target",
                    [ Sleep (Var "target" -: Var "t") ], []);
                Set ("f", Var "f" +: Int 1);
              ] );
        ];
    ]

let workload ?(params = default_params) () =
  let server = Ft_vm.Asm.compile (server_program params) in
  let client = Ft_vm.Asm.compile (client_program params) in
  Workload.make ~name:"xpilot" ~nprocs
    ~programs:[| server; client; client; client |]
    ~heap_words ~configure:(fun _ -> ())
    ()

(* Sustainable frame rate of a run: rendered frames per simulated second,
   taken from the most heavily loaded client. *)
let fps (r : Ft_runtime.Engine.result) =
  let secs = float_of_int r.Ft_runtime.Engine.sim_time_ns /. 1e9 in
  if secs <= 0. then 0.
  else
    let frames =
      Array.fold_left min max_int
        (Array.sub r.Ft_runtime.Engine.visible_counts 1 3)
    in
    float_of_int frames /. secs
