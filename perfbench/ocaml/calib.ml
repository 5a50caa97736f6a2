(* Host-speed calibration.

   The benchmark runs on shared machines whose speed drifts by 10-25%
   over seconds, which moves every host time with it. A fixed kernel,
   owned by the benchmark and timed for about 5% of each phase, slows
   down with the machine but not with any change to the library. Timings are reported
   scaled by [nominal_ns] over the kernel's measured time per iteration,
   that is, as host time on a machine where the kernel takes
   [nominal_ns] per iteration. On a 2-vCPU VM this cut the spread of a
   workload's 10-second host time from 11% to 3%.

   The kernel does what the interpreter and the event engine spend their
   time on: Hashtbl lookups keyed by boxed int64 over a few MB, boxed
   arithmetic, and short-lived allocation that dies in the minor heap. *)

let nominal_ns = 80.0

let entries = 65_536

let table =
  let t = Hashtbl.create entries in
  for i = 0 to entries - 1 do
    Hashtbl.replace t (Int64.of_int (i * 7919)) (Array.make 4 i)
  done;
  t

let kernel iters =
  let t = table in
  let acc = ref 0L and young = ref [] in
  for i = 1 to iters do
    let k = Int64.of_int (i * 7919 land ((entries - 1) * 7919)) in
    (match Hashtbl.find_opt t (Int64.mul (Int64.div k 7919L) 7919L) with
     | Some a -> acc := Int64.add !acc (Int64.of_int a.(i land 3))
     | None -> ());
    young := Int64.logxor !acc (Int64.of_int i) :: !young;
    if i land 255 = 0 then young := []
  done;
  Sys.opaque_identity !acc |> ignore

(* Samples of the current phase: kernel time and iterations. *)
let spent_ns = ref 0
let iters_run = ref 0
let last_ns = ref 0

let sampling = ref false

(* Run the kernel for about 5% of the time since the last sample, so
   the samples cover the phase evenly, within 4 ms and 200 ms. Pending
   major-GC work is paid first, untimed, so the kernel is not charged
   for the workload's garbage. *)
let sample () =
  sampling := true;
  ignore (Gc.major_slice 0);
  let now = Span.now_ns () in
  let want = float_of_int (now - !last_ns) *. 0.05 /. nominal_ns in
  let iters = max 50_000 (min 2_500_000 (int_of_float want)) in
  kernel iters;
  let after = Span.now_ns () in
  spent_ns := !spent_ns + (after - now);
  iters_run := !iters_run + iters;
  last_ns := after;
  sampling := false

let start_phase () =
  spent_ns := 0;
  iters_run := 0;
  last_ns := Span.now_ns ();
  sample ()

(* Called between steps: samples at most every 50 ms. *)
let tick () =
  if (not !sampling) && Span.now_ns () - !last_ns >= 50_000_000 then sample ()

(* Host time since a mark, minus the kernel's samples taken meanwhile. *)
type mark = { at : int; spent : int }

let mark () = { at = Span.now_ns (); spent = !spent_ns }
let since m = Span.now_ns () - m.at - (!spent_ns - m.spent)

(* Library calls of seconds (a Fleet_xl run, a long guest run) would go
   unsampled between ops, so while enabled a 50 ms interval timer also
   samples inside them: OCaml runs the SIGALRM handler at the next poll
   point of whatever code is running. [since] leaves that time out of
   the call's. It stays off where ops are short (the kernel's cache
   footprint would land inside a few-millisecond migration) and in
   traced passes, so spans hold only library time. *)
let sample_inside_calls on =
  let every = if on then 0.05 else 0.0 in
  if on then Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> tick ()));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every });
  if not on then Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Ends the phase and returns its factor: multiply the phase's host
   times by it. *)
let finish_phase () =
  sample ();
  nominal_ns *. float_of_int !iters_run /. float_of_int !spent_ns
