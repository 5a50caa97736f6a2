(* Bechamel micro-benchmarks: one Test.make per table/figure, measuring
   the core operation that experiment exercises (wall-clock of the real
   OCaml implementation, not the simulated cost model). *)

open Bechamel
open Toolkit
open Dapper_machine
open Dapper_workloads
open Dapper
open Dapper_security
open Dapper_cluster
module Link = Dapper_codegen.Link

let fixture () =
  let c = Registry.compiled (Registry.find "npb-cg.A") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:400_000);
  (match Monitor.request_pause p ~budget:40_000_000 with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  (c, p, image)

(* Redis-like server paused mid-request-loop: the workload whose dense
   stack maps the index/plan-cache layer targets. *)
let redis_fixture () =
  let c = Registry.compiled (Registry.find "redis") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  (match Monitor.request_pause p ~budget:40_000_000 with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  (c, image)

(* Every (function, eqpoint id) in a stack-map list — the query set for
   the linear-vs-indexed lookup comparison. *)
let lookup_queries maps =
  List.concat_map
    (fun (fm : Dapper_binary.Stackmap.func_map) ->
      List.map
        (fun (ep : Dapper_binary.Stackmap.eqpoint) -> (fm.fm_name, ep.ep_id))
        fm.fm_eqpoints)
    maps

(* Synthetic but realistically sized pointer-translation interval set
   (disjoint, like rewriter stack intervals). *)
let translate_intervals =
  List.init 512 (fun i ->
      let lo = Int64.of_int (0x8000_0000 + (0x1000 * i)) in
      (lo, Int64.add lo 0x800L, Int64.of_int i))

let translate_queries =
  List.init 1024 (fun i -> Int64.of_int (0x8000_0000 + (0x600 * i)))

let tests () =
  let c, p, image = fixture () in
  let image_arm, _ =
    Dapper_util.Dapper_error.ok_exn
      (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
  in
  let rc, rimage = redis_fixture () in
  let rmaps = rc.Link.cp_x86.bin_stackmaps in
  let rix = Dapper_binary.Stackmap_index.build rmaps in
  let queries = lookup_queries rmaps in
  let imap = Dapper_util.Interval_map.of_list translate_intervals in
  let kinds =
    [ { Scheduler.jk_name = "cg"; jk_xeon_ms = 9000.0; jk_rpi_ms = 25000.0;
        jk_migration_ms = 1500.0 } ]
  in
  let cfg =
    { Scheduler.c_window_ms = Scheduler.default_window_ms; c_xeon_slots = 7; c_rpis = 3;
      c_rpi_slots_each = 3 }
  in
  let qs_bin =
    (Option.get (Dapper_verify.Corpus.find "mini-quickstart")).Link.cp_x86
  in
  let qs_log =
    match Dapper_replay.Replayer.record qs_bin with
    | Ok log -> log
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"dapper" ~fmt:"%s/%s"
    [ Test.make ~name:"fig5-criu-dump" (Staged.stage (fun () ->
          ignore (Dapper_criu.Dump.dump p)));
      Test.make ~name:"fig5-unwind" (Staged.stage (fun () ->
          ignore
            (Unwind.unwind_all image c.Link.cp_x86.bin_stackmaps
               ~anchors:c.Link.cp_x86.bin_anchors)));
      Test.make ~name:"fig5-rewrite-x86-to-arm" (Staged.stage (fun () ->
          ignore (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)));
      Test.make ~name:"fig5-criu-restore" (Staged.stage (fun () ->
          ignore (Dapper_criu.Restore.restore image_arm c.Link.cp_arm)));
      (* The chunked-overlap scheduler itself (pure arithmetic over the
         chunk list): cost of planning a 1 MiB image in 64 KiB chunks. *)
      Test.make ~name:"fig5-pipeline-schedule" (Staged.stage (fun () ->
          ignore
            (Dapper_net.Transport.pipeline_schedule
               (Dapper_net.Transport.scp Dapper_net.Link.infiniband)
               ~bytes:(1 lsl 20) ~chunk_bytes:65536 ~recode_ns:2.0e6)));
      Test.make ~name:"fig6-interp-100k-instrs" (Staged.stage (fun () ->
          let q = Process.load c.Link.cp_arm in
          ignore (Process.run q ~max_instrs:100_000)));
      (* Record/replay overhead: a full recorded execution (eqpoint walk
         with per-anchor snapshots) and a validating replay of that
         recording, against the plain fig6 interpretation baseline. *)
      Test.make ~name:"replay-record" (Staged.stage (fun () ->
          ignore (Dapper_replay.Replayer.record qs_bin)));
      Test.make ~name:"replay-run" (Staged.stage (fun () ->
          ignore (Dapper_replay.Replayer.replay ~log:qs_log qs_bin)));
      Test.make ~name:"fig7-crit-decode-encode" (Staged.stage (fun () ->
          List.iter
            (fun (name, bytes) ->
              if name <> "pages-1.img" then
                ignore
                  (Dapper_criu.Crit.encode_file name
                     (Dapper_criu.Crit.decode_file name bytes)))
            (Dapper_criu.Images.to_files image)));
      Test.make ~name:"fig8-scheduler-30min" (Staged.stage (fun () ->
          ignore (Scheduler.run cfg kinds)));
      (* The event queue itself: push 4096 entries with scattered times
         and drain them — the per-event log-time cost every simulator
         loop above pays. *)
      Test.make ~name:"event-heap-churn" (Staged.stage (fun () ->
          let h = Dapper_util.Event_heap.create ~capacity:4096 () in
          let state = ref 0x2545F4914F6C in
          for i = 0 to 4095 do
            state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
            Dapper_util.Event_heap.push h ~key:(i land 7)
              ~time:(float (!state land 0xFFFF)) i
          done;
          ignore (Dapper_util.Event_heap.drain h)));
      (* Engine overhead of the scaled fleet simulator: a full 10-node /
         1k-job fig8-xl run, so ns/run here divided by x_events is the
         per-event dispatch cost at small scale. *)
      Test.make ~name:"fig8-xl-sched-overhead" (Staged.stage (fun () ->
          ignore
            (Fleet_xl.run
               (Experiments.fig8_xl_config ~nodes:10 ~jobs:1_000
                  ~policy:Placement.First_fit)
               kinds)));
      Test.make ~name:"fig9-shuffle-sbi" (Staged.stage (fun () ->
          ignore (Shuffle.shuffle_binary (Dapper_util.Rng.create 1L) c.Link.cp_x86)));
      Test.make ~name:"fig10-entropy" (Staged.stage (fun () ->
          let _, stats = Shuffle.shuffle_binary (Dapper_util.Rng.create 2L) c.Link.cp_arm in
          ignore (Shuffle.average_bits stats)));
      Test.make ~name:"fig11-gadget-scan" (Staged.stage (fun () ->
          ignore (Gadgets.scan c.Link.cp_x86)));
      (* Indexed recode pipeline: the operations the stack-map index,
         interval map and plan cache accelerate, each with its linear
         baseline so the speedup is visible in one run. *)
      Test.make ~name:"redis-recode-x86-to-arm" (Staged.stage (fun () ->
          ignore (Rewrite.rewrite rimage ~src:rc.Link.cp_x86 ~dst:rc.Link.cp_arm)));
      Test.make ~name:"redis-stackmap-lookup-linear" (Staged.stage (fun () ->
          List.iter
            (fun (fn, ep_id) ->
              match Dapper_binary.Stackmap.find_func rmaps fn with
              | Some fm -> ignore (Dapper_binary.Stackmap.eqpoint_by_id fm ep_id)
              | None -> ())
            queries));
      Test.make ~name:"redis-stackmap-lookup-indexed" (Staged.stage (fun () ->
          List.iter
            (fun (fn, ep_id) ->
              ignore (Dapper_binary.Stackmap_index.eqpoint_by_id rix fn ep_id))
            queries));
      Test.make ~name:"redis-ptr-translate-linear" (Staged.stage (fun () ->
          List.iter
            (fun v ->
              ignore
                (List.find_opt
                   (fun (lo, hi, _) ->
                     Int64.compare v lo >= 0 && Int64.compare v hi < 0)
                   translate_intervals))
            translate_queries));
      Test.make ~name:"redis-ptr-translate-indexed" (Staged.stage (fun () ->
          List.iter
            (fun v -> ignore (Dapper_util.Interval_map.find imap v))
            translate_queries)) ]

let results_file = "BENCH_RESULTS.json"

(* --trace FILE: one traced end-to-end scp migration of the npb fixture
   on the simulated clock, exported as Chrome trace_event JSON plus a
   plain-text flame summary. Under eager scp nothing charges the clock
   outside the six stage spans, so the per-stage span totals printed by
   the flame summary agree with the cost report's phase times. *)
let run_trace file =
  let module Trace = Dapper_obs.Trace in
  let c = Registry.compiled (Registry.find "npb-cg.A") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:400_000);
  Trace.start ();
  let cfg = Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm in
  match Result.map Session.finish (Session.run cfg p) with
  | Error e -> failwith ("traced migration failed: " ^ Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    Trace.stop ();
    Trace.export ~file;
    print_endline (Session.cost_report r);
    print_string (Trace.flame_summary ());
    Printf.printf "wrote %s (%d trace events)\n" file
      (List.length (Trace.events ()))

let run_micro ?(json = false) ?(smoke = false) ?trace () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = Time.second (if smoke then 0.05 else 0.5) in
  let cfg =
    Benchmark.cfg ~limit:(if smoke then 50 else 1000) ~quota ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "== Bechamel micro-benchmarks (monotonic clock per run) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Some est
        | _ -> None
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Dapper_util.Tbl.print ~title:"micro" ~header:[ "operation"; "time/run" ]
    (List.map
       (fun (name, est) ->
         [ name;
           (match est with Some e -> Printf.sprintf "%.0f ns" e | None -> "n/a") ])
       rows);
  if json then begin
    let module J = Dapper_util.Json in
    let entries =
      List.map
        (fun (name, est) ->
          J.Obj
            [ ("name", J.String name);
              ("ns_per_run", match est with Some e -> J.Float e | None -> J.Null) ])
        rows
    in
    (* fig8-xl sweep rows ride along in the same results file so the
       schema gate can hold the scaled-fleet numbers to account. Smoke
       (CI) trims the sweep to <= 1k nodes; a full run covers the 10k /
       1M point too. *)
    let xl_rows =
      Experiments.fig8_xl_sweep ~max_nodes:(if smoke then 1_000 else 10_000) ()
    in
    let xl_entries =
      List.map
        (fun (r : Experiments.xl_row) ->
          let s = r.Experiments.xr_stats in
          J.Obj
            [ ("policy", J.String r.Experiments.xr_policy);
              ("nodes", J.Float (float r.Experiments.xr_nodes));
              ("jobs", J.Float (float r.Experiments.xr_jobs));
              ("jobs_done", J.Float (float s.Fleet_xl.x_jobs_done));
              ("slo_met", J.Float (float s.Fleet_xl.x_slo_met));
              ("slo_missed", J.Float (float s.Fleet_xl.x_slo_missed));
              ("nodes_powered", J.Float (float s.Fleet_xl.x_nodes_powered));
              ("jobs_per_kj", J.Float s.Fleet_xl.x_jobs_per_kj);
              ("throughput_per_min", J.Float s.Fleet_xl.x_throughput_per_min);
              ("events", J.Float (float s.Fleet_xl.x_events));
              ("events_per_sim_s", J.Float s.Fleet_xl.x_events_per_sim_s);
              ("makespan_ms", J.Float s.Fleet_xl.x_makespan_ms) ])
        xl_rows
    in
    (* fig7-live rows: tail latency across a live migration. Smoke trims
       the open-loop request count so CI stays fast; a full run plays the
       1M-request plane. *)
    let live_rows =
      Experiments.fig7_live_sweep
        ~requests:(if smoke then 120_000 else 1_000_000) ()
    in
    let live_entries =
      List.map
        (fun (r : Experiments.live_row) ->
          J.Obj
            [ ("workload", J.String r.Experiments.lv_label);
              ("mechanism", J.String r.Experiments.lv_mechanism);
              ("requests", J.Float (float r.Experiments.lv_requests));
              ("stalled", J.Float (float r.Experiments.lv_stalled));
              ("faulted", J.Float (float r.Experiments.lv_faulted));
              ("precopy_ms", J.Float r.Experiments.lv_precopy_ms);
              ("blackout_ms", J.Float r.Experiments.lv_blackout_ms);
              ("p50_ms", J.Float r.Experiments.lv_p50);
              ("p99_ms", J.Float r.Experiments.lv_p99);
              ("p999_ms", J.Float r.Experiments.lv_p999);
              ("mig_p50_ms", J.Float r.Experiments.lv_mig_p50);
              ("mig_p99_ms", J.Float r.Experiments.lv_mig_p99);
              ("mig_p999_ms", J.Float r.Experiments.lv_mig_p999);
              ("fingerprint", J.String r.Experiments.lv_fingerprint) ])
        live_rows
    in
    (* fig9-chaos rows: the self-healing control plane under sustained
       correlated faults, one row per arm (control on / off) over the
       same seeds. Smoke trims the seed count and request plane. *)
    let chaos_arms =
      Experiments.fig9_chaos_sweep
        ~seeds:(if smoke then 12 else 200)
        ~requests:(if smoke then 6_000 else 20_000)
        ()
    in
    let chaos_entries =
      List.map
        (fun ((_, y) : _ * Experiments.Health.Sustained.summary) ->
          let module S = Experiments.Health.Sustained in
          J.Obj
            [ ("control", J.String (if y.S.y_control then "on" else "off"));
              ("seeds", J.Float (float y.S.y_seeds));
              ("committed", J.Float (float y.S.y_committed));
              ("degraded", J.Float (float y.S.y_degraded));
              ("rolled_back", J.Float (float y.S.y_rolled_back));
              ("postponed", J.Float (float y.S.y_postponed));
              ("attempts", J.Float (float y.S.y_attempts));
              ("sheds", J.Float (float y.S.y_sheds));
              ("breaker_trips", J.Float (float y.S.y_trips));
              ("deadline_cancels", J.Float (float y.S.y_cancels));
              ("availability", J.Float y.S.y_availability);
              ("mig_p99_ms", J.Float (S.mig_p99 y)) ])
        chaos_arms
    in
    let doc =
      J.Obj
        [ ("suite", J.String "dapper-micro"); ("smoke", J.Bool smoke);
          ("benchmarks", J.List entries); ("fig8_xl", J.List xl_entries);
          ("fig7_live", J.List live_entries);
          ("fig9_chaos", J.List chaos_entries) ]
    in
    let oc = open_out results_file in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf
      "wrote %s (%d benchmarks, %d fig8-xl rows, %d fig7-live rows, %d \
       fig9-chaos rows)\n"
      results_file (List.length entries) (List.length xl_entries)
      (List.length live_entries) (List.length chaos_entries)
  end;
  Option.iter run_trace trace

let run () = run_micro ()
