(* One pass of a workload: the ops it attempted, which of them failed,
   host time spent inside ops, exact counters read from the library's
   public return values, and a digest of the simulated outputs.

   A pass runs at least [prefix] ops. The digest covers exactly those,
   so it is the same for every run of a seed however long the run. *)

type t = {
  prefix : int;
  deadline_ns : int option;    (* [None]: stop right after the prefix *)
  started_ns : int;
  mutable rounds : int;
  mutable attempted : int;
  mutable failed : int;
  mutable busy_ns : int;       (* host time inside ops *)
  mutable units : float;       (* work completed: jobs, migrations, ... *)
  mutable latencies : int list;
  counters : (string, int) Hashtbl.t;
  mutable digest : int64;
}

let create ~prefix ~deadline_ns =
  { prefix; deadline_ns; started_ns = Span.now_ns (); rounds = 0; attempted = 0; failed = 0;
    busy_ns = 0; units = 0.0; latencies = []; counters = Hashtbl.create 32;
    digest = 0xcbf29ce484222325L }

(* Whether the pass should start another round of ops: always within
   the prefix, then while another round of the average length so far
   still ends before the deadline. *)
let more t =
  let now = Span.now_ns () in
  let go =
    t.attempted < t.prefix
    ||
    match t.deadline_ns with
    | Some d -> now + ((now - t.started_ns) / max 1 t.rounds) <= d
    | None -> false
  in
  if go then t.rounds <- t.rounds + 1;
  go

let count t name n =
  Hashtbl.replace t.counters name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

(* FNV-1a over [s], fed only while the current op is in the prefix. *)
let digest t s =
  if t.attempted <= t.prefix then begin
    let h = ref t.digest in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    t.digest <- !h
  end

let latency t ns = t.latencies <- ns :: t.latencies

(* Run one op: [f] returns [Ok ()] or [Error reason]. An exception is a
   failure too. Nothing aborts the pass. [~settle:true] compacts the heap first, untimed, so the op's heap
   high-water mark and timing do not depend on the ops before it; it is
   for ops of a tenth of a second or more. *)
let op ?(settle = false) t f =
  Calib.tick ();
  if settle then Gc.compact ();
  t.attempted <- t.attempted + 1;
  Span.current_op := t.attempted - 1;
  let m = Calib.mark () in
  let r = match f () with r -> r | exception e -> Error (Printexc.to_string e) in
  t.busy_ns <- t.busy_ns + Calib.since m;
  match r with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    if t.failed <= 5 then Printf.eprintf "op %d failed: %s\n%!" (t.attempted - 1) msg

(* Nearest-rank percentile of integer samples; 0 when there are none. *)
let percentile samples p =
  match samples with
  | [] -> 0
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
