(* live-postcopy: open loop in simulated time, a batch on the host. Each
   scenario plays seeded MMPP arrivals (fig7-live's redis calibration)
   through Loadgen.run while it migrates the server with Postcopy or
   Hybrid, then runs the lazily restored destination to completion so its
   demand faults go through the page-server path. *)

open Dapper_isa
open Dapper_machine
open Dapper_net
open Dapper_util
module Link = Dapper_codegen.Link
module Session = Dapper.Session
module Tr = Dapper_traffic

(* fig7-live's server: redis with 4096 keys and 6000 operations. *)
let ops = 6000
let lanes = 4
let util = 0.15
let client_rps = 0.25
let floor_instrs = 20_000.0

let setup ~size ~seed =
  Dapper.Plan_cache.clear ();
  let requests = match size with Wl.Full -> 1_000_000 | Wl.Tiny -> 20_000 in
  let compiled = Link.compile ~app:"redis-live" (Dapper_workloads.Servers.redis ~keys:4096 ~ops ()) in
  let prog = { Wl.name = "redis-live"; compiled; ref_ = Wl.reference compiled.Link.cp_x86 } in
  let total = Int64.to_float prog.Wl.ref_.Wl.ref_instrs in
  let instrs_per_req = Float.max (total /. float_of_int ops) floor_instrs in
  let s_src = Tr.Loadgen.service_ms ~node:Node.xeon ~instrs_per_req in
  let s_dst = Tr.Loadgen.service_ms ~node:Node.rpi ~instrs_per_req in
  let rate = util *. float_of_int lanes /. s_src in
  let window = float_of_int requests /. rate in
  let scfg = Wl.config compiled ~src:Arch.X86_64 in
  (* fig7-live's migration point: half the native run. *)
  let warm = int_of_float (total *. 0.5) in
  let rng = Rng.create (Int64.of_int seed) in
  let scenario acc mech =
    (* Bringing the source to its migration point is not part of the
       op: it is the same guest run evict-run already measures. *)
    let p = Process.load compiled.Link.cp_x86 in
    let lg =
      { Tr.Loadgen.lg_seed = Rng.next rng;
        lg_requests = requests;
        lg_clients = int_of_float (Float.ceil (rate *. 1000.0 /. client_rps));
        lg_client_rps = client_rps;
        lg_mmpp = Some [| (0.8, 120.0); (1.6, 40.0) |];
        lg_lanes = lanes;
        lg_service_src_ms = s_src;
        lg_service_dst_ms = s_dst;
        lg_migrate_at_ms = 0.25 *. window;
        lg_max_rounds = 5;
        lg_downtime_budget_ms = 25.0;
        lg_round_instrs = 200_000;
        lg_racks = Some (Rack.create ~racks:4 ~servers_each:2);
        lg_rack = 0 }
    in
    let warmed = Process.run p ~max_instrs:warm in
    Acc.op ~settle:true acc (fun () ->
        match warmed with
        | Process.Progress ->
          (match Calls.loadgen acc lg scfg p mech with
           | Error e -> Error (Dapper_error.to_string e)
           | Ok st when st.Tr.Loadgen.ls_requests <> requests ->
             Error (Printf.sprintf "%d of %d requests played" st.Tr.Loadgen.ls_requests requests)
           | Ok st ->
             Acc.digest acc (Tr.Loadgen.fingerprint_line st);
             let d = st.Tr.Loadgen.ls_outcome.Session.r_process in
             (match Calls.run_to_completion acc d with
              | Process.Exited_run code ->
                let r =
                  Wl.check prog ~before:(Process.stdout_contents p)
                    ~after:(Process.stdout_contents d) code
                in
                if Result.is_ok r then
                  acc.Acc.units <- acc.Acc.units +. float_of_int requests;
                r
              | r -> Error ("destination: " ^ Wl.run_error r)))
        | r -> Error ("source before migration: " ^ Wl.run_error r))
  in
  { Wl.prefix = (match size with Wl.Full -> 16 | Wl.Tiny -> 2);
    pass =
      (fun acc ->
        while Acc.more acc do
          let pair =
            if Rng.bool rng then Tr.Budget.[ Postcopy; Hybrid ] else Tr.Budget.[ Hybrid; Postcopy ]
          in
          List.iter (scenario acc) pair
        done) }
