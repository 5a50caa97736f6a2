(* fleet-xl: a batch of Fleet_xl.run at the fig8-xl headline point (10k
   nodes, 1M jobs), one run per placement policy per round in a seeded
   order. Job kinds are seeded values written here, so no guest code is
   interpreted. *)

open Dapper_net
open Dapper_cluster
open Dapper_util

let policies = Placement.[| First_fit; Energy_aware; Slo_aware |]

(* fig8-xl's fleet shape: 20% Jetson, 30% Pi 5, 50% Pi 4. *)
let config ~nodes ~jobs ~policy =
  let jetson = max 1 (nodes / 5) in
  let rpi5 = max 1 (nodes * 3 / 10) in
  let rpi = max 1 (nodes - jetson - rpi5) in
  { Fleet_xl.x_window_ms = 86_400_000.0;
    x_xeon_slots = max 7 (7 * nodes / 10);
    x_classes =
      [ { Fleet_xl.xc_node = Node.jetson; xc_nodes = jetson; xc_slots_per_node = 4 };
        { xc_node = Node.rpi5; xc_nodes = rpi5; xc_slots_per_node = 3 };
        { xc_node = Node.rpi; xc_nodes = rpi; xc_slots_per_node = 3 } ];
    x_jobs = jobs;
    x_placement = policy;
    x_shards = max 1 (min 64 (nodes / 8));
    x_racks = max 1 (nodes / 40);
    x_page_servers_each = 4;
    x_slo_factor = 2.5;
    x_fault = None;
    x_loss_every_ms = 0.0;
    x_rack_gate = None;
    x_rack_report = None }

(* fig8's per-job costs (xeon ms, pi ms, migration ms) for NPB class B
   ep, cg, mg and ft, each jittered by up to 2% and cycled in a seeded
   order. *)
let base_kinds =
  [ ("npb-ep.B", 58_557.0, 161_715.9, 268.9);
    ("npb-cg.B", 74_865.5, 205_493.6, 745.0);
    ("npb-mg.B", 93_820.2, 266_789.6, 1_652.1);
    ("npb-ft.B", 37_470.0, 102_100.6, 616.8) ]

let kinds rng =
  let jitter v = v *. (0.98 +. 0.04 *. Rng.float rng) in
  let kinds =
    Array.of_list
      (List.map
         (fun (name, xeon, rpi, migration) ->
           let xeon = jitter xeon in
           let rpi = jitter rpi in
           let migration = jitter migration in
           { Scheduler.jk_name = name; jk_xeon_ms = xeon; jk_rpi_ms = rpi;
             jk_migration_ms = migration })
         base_kinds)
  in
  Rng.shuffle rng kinds;
  Array.to_list kinds

let digest_stats acc (s : Fleet_xl.stats) =
  Acc.digest acc
    (Printf.sprintf "%d|%d|%d|%d|%d|%d|%h|%h|%d|%d|%d|%h|%h|%h|%h|%d|%d|%h;"
       s.Fleet_xl.x_jobs_done s.x_jobs_fast s.x_jobs_slow s.x_jobs_lost_in_flight
       s.x_nodes_lost s.x_migrations s.x_migration_ms_total s.x_rack_queue_ms s.x_steals
       s.x_slo_met s.x_slo_missed s.x_energy_kj s.x_jobs_per_kj s.x_throughput_per_min
       s.x_makespan_ms s.x_nodes_powered s.x_events s.x_events_per_sim_s)

let setup ~size ~seed =
  let nodes, jobs = match size with Wl.Full -> (10_000, 1_000_000) | Wl.Tiny -> (100, 10_000) in
  let rng = Rng.create (Int64.of_int seed) in
  let kinds = kinds rng in
  (* Warm-up: one run per policy at a tenth of the scale. *)
  Array.iter
    (fun policy ->
      ignore (Fleet_xl.run (config ~nodes:(nodes / 10) ~jobs:(jobs / 10) ~policy) kinds);
      Calib.tick ())
    policies;
  { Wl.prefix = Array.length policies;
    pass =
      (fun acc ->
        while Acc.more acc do
          Array.iter
            (fun i ->
              let policy = policies.(i) in
              Acc.op ~settle:true acc (fun () ->
                  let st = Calls.fleet_xl acc (config ~nodes ~jobs ~policy) kinds in
                  digest_stats acc st;
                  if st.Fleet_xl.x_jobs_done < jobs then
                    Error
                      (Printf.sprintf "%s: %d of %d jobs done" (Placement.name policy)
                         st.Fleet_xl.x_jobs_done jobs)
                  else begin
                    acc.Acc.units <- acc.Acc.units +. float_of_int st.Fleet_xl.x_events;
                    Ok ()
                  end))
            (Rng.permutation rng (Array.length policies))
        done) }
