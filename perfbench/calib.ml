(* How fast the host runs, sampled while the benchmark is timed.

   On a shared host the same pass can take 1.5 s or 2.6 s: the host
   switches between a fast and a slow state many times a second, and
   the share of slow time can stay high for longer than a whole run, so
   neither the fastest pass nor the median pass of a run is steady.
   Instead a timer interrupts the timed code every [interval_s] and runs
   [probe], a fixed computation that uses no repo code; the host's speed
   at that moment is a reference time over the probe's time.  A timed
   span of [t] host seconds, less the probes inside it, did the work of
   [t] times the mean speed seconds on a host running at the reference
   speed: that is what the benchmark reports.

   The probe's table and arrays are made once, the large one outside
   the OCaml heap, and it allocates nothing, so it adds little to the
   heap the benchmark reports and does not change when the collector
   runs. *)

let interval_s = 0.005

(* The probe has two halves, timed apart.  One reads and writes a hash
   table and an array scattered over 2 MB, which the timed code between
   two probes has mostly pushed out of the cache, so it waits on memory;
   the other runs a branchy integer loop over 2 KB, so it waits on the
   core.  A slow host slows the two by different amounts, and the
   workloads sit in between: measured against 5 runs of 13-18 passes,
   the interpreter-heavy figure8 tracked the core half, recovery both,
   and scaling by the geometric mean of the two speeds left the least
   spread between runs (figure8 0.9%, recovery 6.3%, against 2.9% and
   8.9% for the memory half alone).  The halves' reference times are
   about their times on the 2-vCPU Xeon VM the benchmark was sized on,
   so that reported times read roughly as host seconds there. *)
let memory_reference_s = 200e-6
let core_reference_s = 200e-6

let memory_rounds = 2_000
let mask = 262_143
let a = Bigarray.(Array1.create int c_layout (mask + 1))
let () = Bigarray.Array1.fill a 0
let keys = 8191
let h : (int, int) Hashtbl.t = Hashtbl.create (2 * (keys + 1))
let () = for k = 0 to keys do Hashtbl.replace h k k done
let cursor = ref 0

let core_rounds = 20_000
let b = Array.make 256 0

(* the two halves' host seconds *)
let probe () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to memory_rounds do
    let i = !cursor + r in
    let k = i * 40503 land mask in
    a.{k} <- a.{k} + i;
    let key = k land keys in
    acc := !acc + (i lxor k) + Hashtbl.find h key;
    if i land 3 = 0 then Hashtbl.replace h key a.{k}
  done;
  cursor := !cursor + memory_rounds;
  let t1 = Unix.gettimeofday () in
  let x = ref (!cursor lor 1) in
  for _ = 1 to core_rounds do
    (* xorshift32: a branch the predictor cannot learn *)
    x := !x lxor (!x lsl 13) land 0xFFFFFFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0xFFFFFFFF;
    if !x land 1 = 0 then b.(!x land 255) <- b.(!x land 255) + 1
    else acc := !acc + (!x lsr 3)
  done;
  ignore (Sys.opaque_identity !acc);
  let t2 = Unix.gettimeofday () in
  (t1 -. t0, t2 -. t1)

(* running totals since [start] *)
let probes = ref 0
let memory_speed = ref 0.
let core_speed = ref 0.
let probe_s = ref 0.

let on_tick _ =
  let tm, tc = probe () in
  incr probes;
  memory_speed := !memory_speed +. (memory_reference_s /. tm);
  core_speed := !core_speed +. (core_reference_s /. tc);
  probe_s := !probe_s +. tm +. tc

let start () =
  probes := 0;
  memory_speed := 0.;
  core_speed := 0.;
  probe_s := 0.;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_tick);
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval_s; it_value = interval_s })

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

type mark = { wall : float; n : int; memory : float; core : float; spent : float }

let mark () =
  {
    wall = Unix.gettimeofday ();
    n = !probes;
    memory = !memory_speed;
    core = !core_speed;
    spent = !probe_s;
  }

(* Between two marks: the host seconds outside the probes, and the
   host's speed over the probes that fell between them, the geometric
   mean of the halves' mean speeds ([None] if no probe fell between
   them). *)
let between m0 m1 =
  let n = float_of_int (m1.n - m0.n) in
  ( m1.wall -. m0.wall -. (m1.spent -. m0.spent),
    if n = 0. then None
    else Some (sqrt ((m1.memory -. m0.memory) /. n *. ((m1.core -. m0.core) /. n))) )
