(* perfbench: host-time benchmark of the Dapper reproduction.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--size full|tiny] [--spans FILE]

   --trace 0 sets the workload up (several times, reporting the median),
   then runs whole rounds of ops while they fit in S seconds, and prints
   the end-to-end metrics. --trace 1 runs the workload's fixed prefix of
   ops twice from identical set-ups, untraced and then traced, and prints
   per-layer metrics, a self-time table per span and the tracing
   overhead. Every metric line reads "metric NAME VALUE UNIT"; the last
   line of stdout is one JSON object. All timings are host time on a
   monotonic clock, scaled for the machine's speed (Calib); the
   simulator's modelled times only feed sim_digest. *)

type workload = {
  name : string;
  setup : size:Wl.size -> seed:int -> Wl.run;
  setup_reps : int;
  long_calls : bool;
      (* single library calls last a tenth of a second or more, so the
         calibration kernel must also sample inside them (Calib) *)
  named : k:float -> Acc.t -> (string * float * string) list;
      (* the workload's own names for its end-to-end figures *)
}

(* Host times below are scaled by the pass's calibration factor [k]
   (see Calib); [k = 1.0] gives the raw clock readings. *)
let secs ns = float_of_int ns /. 1e9
let per_s ~k (acc : Acc.t) = acc.Acc.units /. (secs acc.Acc.busy_ns *. k)
let latency_ms ~k (acc : Acc.t) p = float_of_int (Acc.percentile acc.Acc.latencies p) /. 1e6 *. k

let workloads =
  [ { name = "evict-run"; setup = Evict_run.setup; setup_reps = 1; long_calls = true;
      named =
        (fun ~k acc ->
          let instrs = Acc.counter acc "process.instrs" + Acc.counter acc "pause.drain_instrs" in
          [ ("jobs_per_s", per_s ~k acc, "1/s");
            ("guest_minstr_per_s", float_of_int instrs /. 1e6 /. (secs acc.Acc.busy_ns *. k),
             "Minstr/s") ]) };
    { name = "migrate-pingpong"; setup = Pingpong.setup; setup_reps = 3; long_calls = false;
      named =
        (fun ~k acc ->
          [ ("migrations_per_s", per_s ~k acc, "1/s");
            ("migration_ms_p50", latency_ms ~k acc 0.5, "ms");
            ("migration_ms_p99", latency_ms ~k acc 0.99, "ms") ]) };
    { name = "live-postcopy"; setup = Live_postcopy.setup; setup_reps = 3; long_calls = true;
      named = (fun ~k acc -> [ ("requests_per_s", per_s ~k acc, "1/s") ]) };
    { name = "fleet-xl"; setup = Fleet.setup; setup_reps = 3; long_calls = true;
      named = (fun ~k acc -> [ ("fleet_events_per_s", per_s ~k acc, "1/s") ]) } ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let print_metric (name, v, unit) = Printf.printf "metric %-28s %14.6f %s\n" name v unit

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let error_rate (acc : Acc.t) =
  ("error_rate", float_of_int acc.Acc.failed /. float_of_int (max 1 acc.Acc.attempted), "ratio")

let untraced w ~size ~seed ~seconds =
  Calib.sample_inside_calls w.long_calls;
  let reps = match size with Wl.Full -> w.setup_reps | Wl.Tiny -> 1 in
  (* Each set-up is its own calibration phase; the kernel's samples
     during it are not set-up time. *)
  let setups =
    List.init reps (fun _ ->
        Calib.start_phase ();
        let m = Calib.mark () in
        let run = w.setup ~size ~seed in
        let raw = Calib.since m in
        (secs raw, Calib.finish_phase (), run))
  in
  let _, _, run = List.nth setups (reps - 1) in
  Calib.start_phase ();
  let acc =
    Acc.create ~prefix:run.Wl.prefix
      ~deadline_ns:(Some (Span.now_ns () + int_of_float (seconds *. 1e9)))
  in
  run.Wl.pass acc;
  let k = Calib.finish_phase () in
  Calib.sample_inside_calls false;
  let e2e ~k ~setup_s =
    [ ("setup_s", setup_s, "s");
      ("peak_heap_mb", peak_heap_mb (), "MiB");
      ("throughput_per_s", per_s ~k acc, "1/s") ]
  in
  let metrics = e2e ~k ~setup_s:(median (List.map (fun (s, f, _) -> s *. f) setups)) in
  Printf.printf "ops %d attempted, %d failed, %.3f s timed, %d set-ups\n" acc.Acc.attempted
    acc.Acc.failed (secs acc.Acc.busy_ns) reps;
  Printf.printf "host speed: times scaled by %.4f (set-ups: %s)\n" k
    (String.concat ", " (List.map (fun (_, f, _) -> Printf.sprintf "%.4f" f) setups));
  List.iter print_metric ((error_rate acc :: w.named ~k acc) @ metrics);
  List.iter
    (fun (n, v, u) -> print_metric ("raw." ^ n, v, u))
    (e2e ~k:1.0 ~setup_s:(median (List.map (fun (s, _, _) -> s) setups)));
  Printf.printf "sim_digest %016Lx (first %d ops)\n" acc.Acc.digest run.Wl.prefix;
  print_json ~correct:(acc.Acc.failed = 0) ~attempted:acc.Acc.attempted ~failed:acc.Acc.failed
    metrics

(* The layer each span's calls belong to, for the self-time table. *)
let layer_of = function
  | "Process.load" | "Process.run" | "Process.run_to_completion" -> "machine"
  | "Session.pause" -> "core Monitor"
  | "Session.dump" -> "criu Dump"
  | "Session.recode" -> "core Rewrite"
  | "Session.transfer" -> "net Transport + criu Images"
  | "Session.restore" -> "criu Restore"
  | "Session.commit" -> "core Session.commit"
  | "Session.run" -> "core Session (all stages)"
  | "Loadgen.run" -> "traffic"
  | "Fleet_xl.run" -> "cluster"
  | _ -> "other"

let span_table selfs ~timed_ns =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), ns, words) ->
      let n, t, w = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.Span.name) in
      Hashtbl.replace rows s.Span.name (n + 1, t +. ns, w +. words))
    selfs;
  let rows = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) (List.of_seq (Hashtbl.to_seq rows)) in
  let pct ns = 100.0 *. ns /. float_of_int timed_ns in
  Printf.printf "%-27s %-28s %7s %11s %7s %12s\n" "span" "layer" "calls" "self ms" "share" "kwords/call";
  List.iter
    (fun (name, (n, ns, w)) ->
      Printf.printf "%-27s %-28s %7d %11.3f %6.2f%% %12.2f\n" name (layer_of name) n (ns /. 1e6)
        (pct ns) (w /. float_of_int n /. 1e3))
    rows;
  let covered = List.fold_left (fun a (_, ns, _) -> a +. ns) 0.0 selfs in
  let outside = float_of_int timed_ns -. covered in
  Printf.printf "%-27s %-28s %7s %11.3f %6.2f%%\n" "(outside any span)" "benchmark" "" (outside /. 1e6) (pct outside);
  Printf.printf "%-27s %-28s %7s %11.3f %6.2f%%\n" "timed host time" "" "" (float_of_int timed_ns /. 1e6) 100.0;
  pct outside

let layer_metrics ~k (acc : Acc.t) selfs ~outside_pct ~overhead_pct =
  let named names = List.filter (fun ((s : Span.t), _, _) -> List.mem s.Span.name names) selfs in
  let sum_ns l = k *. List.fold_left (fun a (_, ns, _) -> a +. ns) 0.0 l in
  let sum_words l = List.fold_left (fun a (_, _, w) -> a +. w) 0.0 l in
  let per a b = if b = 0 then 0.0 else a /. float_of_int b in
  let count name = (name, float_of_int (Acc.counter acc name), "count") in
  let us l p =
    k *. float_of_int (Acc.percentile (List.map (fun ((s : Span.t), _, _) -> s.Span.end_ns - s.Span.start_ns) l) p)
    /. 1e3
  in
  let stage st = named [ "Session." ^ st ] in
  let interp = named [ "Process.run"; "Process.run_to_completion" ] in
  let instrs = Acc.counter acc "process.instrs" in
  let transfers = stage "transfer" in
  let loadgen = named [ "Loadgen.run" ] and fleet = named [ "Fleet_xl.run" ] in
  let requests = Acc.counter acc "loadgen.requests" and events = Acc.counter acc "fleet_xl.events" in
  let hits = Acc.counter acc "rewrite.plan_hits" and misses = Acc.counter acc "rewrite.plan_misses" in
  let share prefix =
    let l = List.filter (fun ((s : Span.t), _, _) -> String.starts_with ~prefix s.Span.name) selfs in
    100.0 *. sum_ns l /. (k *. float_of_int acc.Acc.busy_ns)
  in
  let stages = [ "pause"; "dump"; "recode"; "transfer"; "restore"; "commit" ] in
  [ ("process.ns_per_instr", per (sum_ns interp) instrs, "ns");
    ("process.words_per_instr", per (sum_words interp) instrs, "words");
    count "process.instrs";
    count "memory.faults";
    ("session.pause_us_p50", us (stage "pause") 0.5, "us");
    ("session.pause_us_p99", us (stage "pause") 0.99, "us");
    count "pause.drain_instrs";
    ("session.dump_us_p50", us (stage "dump") 0.5, "us");
    ("dump.bytes", float_of_int (Acc.counter acc "dump.bytes"), "bytes");
    count "dump.pages";
    ("session.recode_us_p50", us (stage "recode") 0.5, "us");
    count "rewrite.work_items";
    count "rewrite.plan_hits";
    count "rewrite.plan_misses";
    ("rewrite.plan_hit_ratio", per (float_of_int hits) (hits + misses), "ratio");
    ("session.transfer_us_p50", us transfers 0.5, "us");
    ("transfer.ns_per_byte",
     (if transfers = [] then 0.0 else per (sum_ns transfers) (Acc.counter acc "transfer.bytes")),
     "ns/byte");
    ("transfer.bytes", float_of_int (Acc.counter acc "transfer.bytes"), "bytes");
    count "transfer.attempts";
    ("session.restore_us_p50", us (stage "restore") 0.5, "us");
    ("session.commit_us_p50", us (stage "commit") 0.5, "us");
    ("session.run_us_p50", us (stage "run") 0.5, "us") ]
  @ List.map
      (fun st ->
        let l = stage st in
        ("session." ^ st ^ "_kwords", per (sum_words l /. 1e3) (List.length l), "kwords"))
      stages
  @ [ ("loadgen.ns_per_request", per (sum_ns loadgen) requests, "ns");
      ("loadgen.words_per_request", per (sum_words loadgen) requests, "words");
      count "loadgen.requests";
      count "precopy.rounds";
      count "precopy.pages_sent";
      count "lazy.pages_owed";
      ("fleet_xl.ns_per_event", per (sum_ns fleet) events, "ns");
      ("fleet_xl.words_per_event", per (sum_words fleet) events, "words");
      count "fleet_xl.events";
      count "fleet_xl.steals";
      ("self_pct.machine", share "Process.", "%");
      ("self_pct.session", share "Session.", "%");
      ("self_pct.traffic", share "Loadgen.", "%");
      ("self_pct.cluster", share "Fleet_xl.", "%");
      ("trace.outside_span_pct", outside_pct, "%");
      ("trace.overhead_pct", overhead_pct, "%");
      ("trace.spans", float_of_int (List.length selfs), "count") ]

let traced w ~size ~seed ~spans_path =
  let pass ~trace =
    let run = w.setup ~size ~seed in
    let acc = Acc.create ~prefix:run.Wl.prefix ~deadline_ns:None in
    Span.reset ();
    Span.enabled := trace;
    Calib.start_phase ();
    run.Wl.pass acc;
    let k = Calib.finish_phase () in
    Span.enabled := false;
    (acc, k)
  in
  let plain, k_plain = pass ~trace:false in
  let acc, k = pass ~trace:true in
  let spans = Span.all () in
  Option.iter (fun path -> Span.write path spans) spans_path;
  let selfs = Span.self_times spans in
  Printf.printf "%d ops per pass; untraced %.3f s, traced %.3f s timed\n" acc.Acc.attempted
    (secs plain.Acc.busy_ns) (secs acc.Acc.busy_ns);
  let outside_pct = span_table selfs ~timed_ns:acc.Acc.busy_ns in
  let overhead_pct =
    100.0 *. ((k *. float_of_int acc.Acc.busy_ns) /. (k_plain *. float_of_int plain.Acc.busy_ns) -. 1.0)
  in
  Printf.printf "host speed: traced pass scaled by %.4f, untraced by %.4f\n" k k_plain;
  let metrics = layer_metrics ~k acc selfs ~outside_pct ~overhead_pct in
  List.iter print_metric (error_rate acc :: metrics);
  let same = plain.Acc.digest = acc.Acc.digest in
  Printf.printf "sim_digest %016Lx (untraced pass %016Lx%s)\n" acc.Acc.digest plain.Acc.digest
    (if same then "" else ", DIFFERENT");
  let failed = plain.Acc.failed + acc.Acc.failed in
  print_json ~correct:(failed = 0 && same) ~attempted:(plain.Acc.attempted + acc.Acc.attempted)
    ~failed metrics

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      Hashtbl.replace args key value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get key = match Hashtbl.find_opt args key with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds, trace =
    match (int_of_string_opt (get "--seed"), float_of_string_opt (get "--seconds"), get "--trace") with
    | Some seed, Some seconds, ("0" | "1" as trace) -> (seed, seconds, trace = "1")
    | _ -> usage ()
  in
  let size =
    match Hashtbl.find_opt args "--size" with
    | None | Some "full" -> Wl.Full
    | Some "tiny" -> Wl.Tiny
    | Some _ -> usage ()
  in
  Printf.printf "perfbench %s seed=%d size=%s trace=%b\n%!" w.name seed
    (match size with Wl.Full -> "full" | Wl.Tiny -> "tiny") trace;
  if trace then traced w ~size ~seed ~spans_path:(Hashtbl.find_opt args "--spans")
  else untraced w ~size ~seed ~seconds
