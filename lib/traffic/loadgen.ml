open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_criu
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

let needs_lazy = function
  | Budget.Vanilla | Budget.Precopy -> false
  | Budget.Hybrid | Budget.Postcopy -> true

let transport_for mech t =
  if needs_lazy mech = Transport.is_lazy t then t
  else if needs_lazy mech then Transport.page_server (Transport.link t)
  else Transport.scp (Transport.link t)

let precopies = function
  | Budget.Precopy | Budget.Hybrid -> true
  | Budget.Vanilla | Budget.Postcopy -> false

let validate c =
  if c.lg_requests <= 0 then invalid_arg "Loadgen.run: lg_requests <= 0";
  if c.lg_clients <= 0 then invalid_arg "Loadgen.run: lg_clients <= 0";
  if c.lg_client_rps <= 0.0 then invalid_arg "Loadgen.run: lg_client_rps <= 0";
  if c.lg_lanes <= 0 then invalid_arg "Loadgen.run: lg_lanes <= 0";
  if c.lg_service_src_ms <= 0.0 || c.lg_service_dst_ms <= 0.0 then
    invalid_arg "Loadgen.run: service means must be positive";
  if c.lg_migrate_at_ms < 0.0 then invalid_arg "Loadgen.run: lg_migrate_at_ms < 0";
  if c.lg_round_instrs <= 0 then invalid_arg "Loadgen.run: lg_round_instrs <= 0"

let ( let* ) = Result.bind

let run c scfg p mech =
  validate c;
  let transport = transport_for mech scfg.Session.cfg_transport in
  let scfg = { scfg with Session.cfg_transport = transport } in
  (* --- the real migration, driven through the session pipeline --- *)
  let pre =
    if precopies mech then
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
  (* stepwise (not Session.run) so the restored state's lazy-page debt
     is visible before commit consumes the session *)
  let* s = Session.pause (Session.start scfg p) in
  let* s = Session.dump s in
  let hot_pages =
    let d = s.Session.s_state.Session.sd_dump in
    d.Dump.pages_dumped + d.Dump.pages_lazy
  in
  let* s = Session.recode s in
  let* s = Session.transfer s in
  let* s = Session.restore s in
  let lazy_left = List.length s.Session.s_state.Session.sf_lazy_pages in
  let* s = Session.commit s in
  let outcome = Session.finish s in
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
  let root = Rng.create c.lg_seed in
  let arrival_seed = Rng.next root in
  let service_rng = Rng.split root in
  let fault_rng = Rng.split root in
  let base_rate = rate_per_ms c in
  let arrivals =
    match c.lg_mmpp with
    | None -> Arrival.poisson ~seed:arrival_seed ~rate_per_ms:base_rate
    | Some states ->
      Arrival.mmpp ~seed:arrival_seed
        (Array.map (fun (mult, hold) -> (base_rate *. mult, hold)) states)
  in
  let lanes = Array.make c.lg_lanes 0.0 in
  let page_bytes =
    int_of_float (float_of_int Layout.page_size *. scfg.Session.cfg_bytes_scale)
  in
  let all = Sketch.create () in
  let during = Sketch.create () in
  let fp = ref Bytebuf.fnv64_offset in
  let stalled_n = ref 0 in
  let faulted_n = ref 0 in
  let remaining = ref lazy_left in
  let lazy_mech = needs_lazy mech in
  for _ = 1 to c.lg_requests do
    let arrive = Arrival.next arrivals in
    (* earliest-free lane, lowest index on ties *)
    let lane = ref 0 in
    for i = 1 to c.lg_lanes - 1 do
      if lanes.(i) < lanes.(!lane) then lane := i
    done;
    let t0 = Float.max arrive lanes.(!lane) in
    let blacked = t0 >= black_start && t0 < resume in
    let t0 = if blacked then resume else t0 in
    let mean =
      if t0 >= resume then c.lg_service_dst_ms
      else if t0 >= mig_start && t0 < black_start then
        c.lg_service_src_ms *. track_overhead
      else c.lg_service_src_ms
    in
    let svc =
      mean *. class_mult (Rng.float service_rng) *. Arrival.expo service_rng
    in
    let fault_ms =
      if lazy_mech && t0 >= resume && !remaining > 0 then begin
        let hot = max 1 hot_pages in
        if Rng.float fault_rng < float_of_int !remaining /. float_of_int hot
        then begin
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
                (Rack.acquire_wait racks ~rack:c.lg_rack ~now_ms:t0
                   ~service_ms:stall)
          in
          decr remaining;
          incr faulted_n;
          stall +. wait
        end
        else 0.0
      end
      else 0.0
    in
    let finish = t0 +. svc +. fault_ms in
    lanes.(!lane) <- finish;
    let lat = finish -. arrive in
    Sketch.add all lat;
    (* "during migration" = arrived inside the migration window (so the
       blackout, or the backlog it left, is in this request's path) or
       charged a post-copy fault. Keyed on the arrival, not the start:
       once the lanes are pushed past the resume the queued-behind
       requests never start inside the window, yet the blackout is
       exactly what they are waiting on. *)
    if (arrive >= mig_start && arrive < resume) || fault_ms > 0.0 then begin
      incr stalled_n;
      Sketch.add during lat
    end;
    fp := Bytebuf.fnv64_mix !fp (Int64.bits_of_float lat)
  done;
  Ok
    { ls_mechanism = mech;
      ls_requests = c.lg_requests;
      ls_stalled = !stalled_n;
      ls_faulted = !faulted_n;
      ls_precopy_ms = precopy_ms;
      ls_blackout_ms = blackout_ms;
      ls_lazy_left = lazy_left;
      ls_precopy = pre;
      ls_all = all;
      ls_during = during;
      ls_fingerprint = !fp;
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
