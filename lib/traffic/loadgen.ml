open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_net
module Session = Dapper.Session
module Trace = Dapper_obs.Trace

type cfg = {
  lg_seed : int64;
  lg_requests : int;
  lg_clients : int;
  lg_client_rps : float;
  lg_mmpp : (float * float) array option;
  lg_lanes : int;
  lg_service_src_ms : float;
  lg_service_dst_ms : float;
  lg_migrate_at_ms : float;
  lg_max_rounds : int;
  lg_downtime_budget_ms : float;
  lg_round_instrs : int;
  lg_racks : Rack.t option;
  lg_rack : int;
}

let rate_per_ms c = float_of_int c.lg_clients *. c.lg_client_rps /. 1000.0

let service_ms ~(node : Node.t) ~instrs_per_req =
  instrs_per_req /. (node.Node.n_ops_per_ns *. 1e6)

type stats = {
  ls_mechanism : Budget.mechanism;
  ls_requests : int;
  ls_stalled : int;
  ls_faulted : int;
  ls_precopy_ms : float;
  ls_blackout_ms : float;
  ls_lazy_left : int;
  ls_precopy : Session.precopy_stats option;
  ls_all : Sketch.t;
  ls_during : Sketch.t;
  ls_fingerprint : int64;
  ls_outcome : Session.outcome;
}

(* Request mix over the Redis-style op classes (GET/SET/INCR at
   60/30/10%), with per-class cost multipliers chosen to preserve the
   calibrated mean exactly: 0.6*0.8 + 0.3*1.2 + 0.1*1.6 = 1. *)
let[@inline] class_mult u = if u < 0.6 then 0.8 else if u < 0.9 then 1.2 else 1.6

(* Write-barrier overhead while dirty tracking runs: pre-copy rounds
   slow the source a hair; the model charges 3% on the service mean. *)
let track_overhead = 1.03

type timeline = {
  tl_start_ms : float;
  tl_blackouts : (float * float) list;
  tl_resume_ms : float;
  tl_track_end_ms : float;
  tl_during_end_ms : float;
  tl_lazy_owed : int;
  tl_dump_pages : int;
  tl_stall_ms : float -> float;
}

type plane = {
  pl_all : Sketch.t;
  pl_during : Sketch.t;
  pl_faulted : int;
  pl_ok : int;
  pl_fingerprint : int64;
}

let play ~requests ~lanes:n_lanes ~service_src_ms ~service_dst_ms ~slo_ms
    ~rng:root ~arrivals tl =
  let arrival_seed = Rng.next root in
  let service_rng = Rng.split root in
  let fault_rng = Rng.split root in
  let arrivals = arrivals arrival_seed in
  let lanes = Array.make n_lanes 0.0 in
  let all = Sketch.create () in
  let during = Sketch.create () in
  let fp = ref Bytebuf.fnv64_offset in
  let faulted_n = ref 0 in
  let ok_n = ref 0 in
  (* the timeline's floats as locals and its windows as flat float
     arrays, so the per-request pass below allocates nothing *)
  let mig_start = tl.tl_start_ms in
  let resume = tl.tl_resume_ms in
  let track_end = tl.tl_track_end_ms in
  let during_end = tl.tl_during_end_ms in
  let win_start = Array.of_list (List.map fst tl.tl_blackouts) in
  let win_stop = Array.of_list (List.map snd tl.tl_blackouts) in
  let hot_pages = max 1 tl.tl_dump_pages in
  let remaining = ref tl.tl_lazy_owed in
  for _ = 1 to requests do
    let arrive = Arrival.next arrivals in
    (* earliest-free lane, lowest index on ties *)
    let lane = ref 0 in
    for i = 1 to n_lanes - 1 do
      if lanes.(i) < lanes.(!lane) then lane := i
    done;
    let t0 = Float.max arrive lanes.(!lane) in
    (* push through every blackout window the start lands in; windows
       are chronological and disjoint, so one pass suffices *)
    let t0 = ref t0 in
    for w = 0 to Array.length win_start - 1 do
      if !t0 >= win_start.(w) && !t0 < win_stop.(w) then t0 := win_stop.(w)
    done;
    let t0 = !t0 in
    let on_dst = t0 >= resume in
    let mean =
      if on_dst then service_dst_ms
      else if t0 >= mig_start && t0 < track_end then
        service_src_ms *. track_overhead
      else service_src_ms
    in
    let svc =
      mean *. class_mult (Rng.float service_rng) *. Arrival.expo service_rng
    in
    let fault_ms =
      if on_dst && !remaining > 0 then begin
        if Rng.float fault_rng < float_of_int !remaining /. float_of_int hot_pages
        then begin
          let stall = tl.tl_stall_ms t0 in
          decr remaining;
          incr faulted_n;
          stall
        end
        else 0.0
      end
      else 0.0
    in
    let finish = t0 +. svc +. fault_ms in
    lanes.(!lane) <- finish;
    let lat = finish -. arrive in
    Sketch.add all lat;
    if lat <= slo_ms then incr ok_n;
    (* "during migration" = arrived inside the migration window (so a
       blackout, or the backlog it left, is in this request's path) or
       charged a post-copy fault. Keyed on the arrival, not the start:
       once the lanes are pushed past a blackout the queued-behind
       requests never start inside it, yet the blackout is exactly what
       they are waiting on. *)
    if (arrive >= mig_start && arrive < during_end) || fault_ms > 0.0 then
      Sketch.add during lat;
    fp := Bytebuf.fnv64_mix !fp (Int64.bits_of_float lat)
  done;
  { pl_all = all;
    pl_during = during;
    pl_faulted = !faulted_n;
    pl_ok = !ok_n;
    pl_fingerprint = !fp }

let transport_for mech t =
  if Budget.needs_lazy mech = Transport.is_lazy t then t
  else if Budget.needs_lazy mech then Transport.page_server (Transport.link t)
  else Transport.scp (Transport.link t)

let validate c =
  if c.lg_requests <= 0 then invalid_arg "Loadgen.run: lg_requests <= 0";
  if c.lg_clients <= 0 then invalid_arg "Loadgen.run: lg_clients <= 0";
  if c.lg_client_rps <= 0.0 then invalid_arg "Loadgen.run: lg_client_rps <= 0";
  if c.lg_lanes <= 0 then invalid_arg "Loadgen.run: lg_lanes <= 0";
  if c.lg_service_src_ms <= 0.0 || c.lg_service_dst_ms <= 0.0 then
    invalid_arg "Loadgen.run: service means must be positive";
  if c.lg_migrate_at_ms < 0.0 then invalid_arg "Loadgen.run: lg_migrate_at_ms < 0";
  if c.lg_round_instrs <= 0 then invalid_arg "Loadgen.run: lg_round_instrs <= 0";
  match c.lg_racks with
  | Some racks when c.lg_rack < 0 || c.lg_rack >= Rack.racks racks ->
    invalid_arg "Loadgen.run: lg_rack outside lg_racks"
  | _ -> ()

let ( let* ) = Result.bind

let run c scfg p mech =
  validate c;
  let transport = transport_for mech scfg.Session.cfg_transport in
  let scfg = { scfg with Session.cfg_transport = transport } in
  (* --- the real migration, driven through the session pipeline --- *)
  let pre =
    if Budget.precopies mech then
      Some
        (Session.precopy scfg p
           ~advance:(fun _ms ->
             ignore (Process.run p ~max_instrs:c.lg_round_instrs))
           ~max_rounds:c.lg_max_rounds
           ~downtime_budget_ms:c.lg_downtime_budget_ms)
    else None
  in
  let resident =
    match pre with Some s -> s.Session.pcs_resident | None -> []
  in
  let scfg = { scfg with Session.cfg_resident_pages = resident } in
  let* s = Session.run scfg p in
  let outcome = Session.finish s in
  let lazy_left = outcome.Session.r_lazy_debt in
  let precopy_ms = match pre with Some st -> st.Session.pcs_ms | None -> 0.0 in
  let blackout_ms = Session.total_ms outcome.Session.r_times in
  let mig_start = c.lg_migrate_at_ms in
  let black_start = mig_start +. precopy_ms in
  let resume = black_start +. blackout_ms in
  if Trace.enabled () then begin
    if precopy_ms > 0.0 then
      Trace.leaf ~cat:"traffic" "precopy-window" ~dur_ns:(precopy_ms *. 1e6)
        ~args:[ ("mechanism", Budget.mechanism_name mech) ];
    Trace.leaf ~cat:"traffic" "blackout" ~dur_ns:(blackout_ms *. 1e6)
      ~args:
        [ ("mechanism", Budget.mechanism_name mech);
          ("lazy_left", string_of_int lazy_left) ]
  end;
  (* --- the open-loop request plane --- *)
  let page_bytes =
    int_of_float (float_of_int Layout.page_size *. scfg.Session.cfg_bytes_scale)
  in
  let stall_ms t0 =
    let stall =
      Transport.fetch_stall_ns transport ?fault:scfg.Session.cfg_fault
        ~page_bytes ()
      /. 1e6
    in
    let wait =
      match c.lg_racks with
      | None -> 0.0
      | Some racks ->
        snd
          (Rack.acquire_wait racks ~rack:c.lg_rack ~now_ms:t0 ~service_ms:stall)
    in
    stall +. wait
  in
  let base_rate = rate_per_ms c in
  let arrivals seed =
    match c.lg_mmpp with
    | None -> Arrival.poisson ~seed ~rate_per_ms:base_rate
    | Some states ->
      Arrival.mmpp ~seed
        (Array.map (fun (mult, hold) -> (base_rate *. mult, hold)) states)
  in
  let pl =
    play ~requests:c.lg_requests ~lanes:c.lg_lanes
      ~service_src_ms:c.lg_service_src_ms ~service_dst_ms:c.lg_service_dst_ms
      ~slo_ms:infinity ~rng:(Rng.create c.lg_seed) ~arrivals
      { tl_start_ms = mig_start;
        tl_blackouts = [ (black_start, resume) ];
        tl_resume_ms = resume;
        tl_track_end_ms = black_start;
        tl_during_end_ms = resume;
        tl_lazy_owed = lazy_left;
        tl_dump_pages = outcome.Session.r_dump_pages;
        tl_stall_ms = stall_ms }
  in
  Ok
    { ls_mechanism = mech;
      ls_requests = c.lg_requests;
      ls_stalled = Sketch.count pl.pl_during;
      ls_faulted = pl.pl_faulted;
      ls_precopy_ms = precopy_ms;
      ls_blackout_ms = blackout_ms;
      ls_lazy_left = lazy_left;
      ls_precopy = pre;
      ls_all = pl.pl_all;
      ls_during = pl.pl_during;
      ls_fingerprint = pl.pl_fingerprint;
      ls_outcome = outcome }

let fingerprint_line st =
  (* A zero-request window (rate or duration rounded to no arrivals)
     leaves both sketches empty; print 0.0 rather than die on it. *)
  let q s p = Option.value (Sketch.quantile_opt s p) ~default:0.0 in
  Printf.sprintf
    "%s n=%d stalled=%d faulted=%d blackout=%.6f p50=%.6f p99=%.6f p999=%.6f \
     mig-p50=%.6f mig-p99=%.6f mig-p999=%.6f fp=%016Lx"
    (Budget.mechanism_name st.ls_mechanism)
    st.ls_requests st.ls_stalled st.ls_faulted st.ls_blackout_ms
    (q st.ls_all 0.5) (q st.ls_all 0.99) (q st.ls_all 0.999)
    (q st.ls_during 0.5) (q st.ls_during 0.99) (q st.ls_during 0.999)
    st.ls_fingerprint
