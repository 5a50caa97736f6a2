open Dapper_util
open Dapper_machine
open Dapper_net
module Session = Dapper.Session
module Budget = Dapper_traffic.Budget
module Sketch = Dapper_traffic.Sketch
module Arrival = Dapper_traffic.Arrival
module Loadgen = Dapper_traffic.Loadgen
module Placement = Dapper_cluster.Placement
module Derr = Dapper_error

type cfg = {
  su_requests : int;
  su_migrate_at_ms : float;
  su_control : bool;
}

let default_cfg =
  { su_requests = 20_000; su_migrate_at_ms = 1_000.0; su_control = true }

(* The fixed shape of every run: no caller needs another. *)
let lanes = 8
let rate_per_ms = 4.0
let service_src_ms = 1.2
let service_dst_ms = 1.0
let slo_ms = 25.0
let racks = 4
let servers_each = 2
let max_attempts = 16
let round_instrs = 20_000
let max_rounds = 6

let validate c =
  if c.su_requests <= 0 then invalid_arg "Sustained: su_requests <= 0"

(* ------------------------------------------------------------------ *)
(* Scenario: one correlated fault drawn per seed                       *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_bad_rack : int;
  sc_all_racks_bad : bool;   (** a quarter of scenarios hit every rack *)
  sc_degrade : float;        (** wire slowdown while bad, 4-8x *)
  sc_fault_prob : float;     (** payload fault probability while bad *)
  sc_bad_from_ms : float;
  sc_bad_until_ms : float;
}

let scenario_of c rng =
  let bad_rack = Rng.int rng racks in
  let all_bad = Rng.float rng < 0.25 in
  let degrade = 4.0 +. 4.0 *. Rng.float rng in
  let fprob = 0.15 +. 0.2 *. Rng.float rng in
  let from_ms =
    Float.max 0.0 (c.su_migrate_at_ms -. 200.0 -. 300.0 *. Rng.float rng)
  in
  let until_ms = c.su_migrate_at_ms +. 1_500.0 +. 2_000.0 *. Rng.float rng in
  { sc_bad_rack = bad_rack; sc_all_racks_bad = all_bad; sc_degrade = degrade;
    sc_fault_prob = fprob; sc_bad_from_ms = from_ms; sc_bad_until_ms = until_ms }

let rack_bad sc ~rack ~now_ms =
  now_ms >= sc.sc_bad_from_ms && now_ms < sc.sc_bad_until_ms
  && (sc.sc_all_racks_bad || rack = sc.sc_bad_rack)

(* Payload drops, checksum corruption, injected latency, and restore
   failures at the destination — the whole retriable surface, scaled by
   the scenario's fault probability. No source crashes: the chaos here
   is sustained degradation, not permanent loss. *)
let fault_spec sc =
  { Fault.calm with
    Fault.fs_drop = sc.sc_fault_prob *. 0.4;
    fs_corrupt = sc.sc_fault_prob *. 0.3;
    fs_delay = sc.sc_fault_prob;
    fs_delay_ns = 5.0e6;
    fs_fail_restore = sc.sc_fault_prob }

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = Committed | Degraded of Degrade.rung | Rolled_back

let verdict_name = function
  | Committed -> "committed"
  | Degraded r -> "degraded:" ^ Degrade.rung_name r
  | Rolled_back -> "rolled-back"

type event = { ev_ms : float; ev_kind : string; ev_detail : string }

type run = {
  r_seed : int64;
  r_scenario : scenario;
  r_verdict : verdict;
  r_attempts : int;
  r_postpones : int;
  r_sheds : int;
  r_trips : int;
  r_cancels : int;
  r_final_rack : int option;
  r_blackout_ms : float;       (** summed over every attempt's window *)
  r_requests : int;
  r_ok : int;
  r_availability : float;
  r_all : Sketch.t;
  r_during : Sketch.t;
  r_events : event list;       (** chronological *)
  r_fingerprint : int64;
}

(* Marginal wire cost of the transport at hand, as the budget picker
   wants it: slope of [transfer_ns] over a 1 MiB span (the fixed
   per-transfer latency cancels out). *)
let wire_ns_per_byte t =
  (Transport.transfer_ns t 1_048_576 -. Transport.transfer_ns t 0)
  /. 1_048_576.0

(* One clean stop-and-copy on a throwaway process calibrates the cost
   projection the budget picker works from: image size, fixed stage
   costs, a lazy-restore discount. The wire slope is re-measured per
   attempt from the transport actually chosen. *)
let calibrate (scfg : Session.config) p =
  let scfg =
    { scfg with
      Session.cfg_transport = Transport.scp (Transport.link scfg.Session.cfg_transport);
      cfg_fault = None;
      cfg_resident_pages = [] }
  in
  match Session.run scfg p with
  | Error e ->
    invalid_arg ("Sustained: calibration migration failed: " ^ Derr.to_string e)
  | Ok s ->
    let o = Session.finish s in
    let t = o.Session.r_times in
    let wire_bytes =
      int_of_float
        (float_of_int o.Session.r_image_bytes *. scfg.Session.cfg_bytes_scale)
    in
    { Budget.e_image_bytes = wire_bytes;
      e_residual_bytes = wire_bytes / 4;
      e_fixed_ms =
        t.Session.t_checkpoint_ms +. t.Session.t_recode_ms
        +. t.Session.t_restore_ms;
      e_lazy_fixed_ms =
        t.Session.t_checkpoint_ms +. t.Session.t_recode_ms
        +. 0.4 *. t.Session.t_restore_ms;
      e_wire_ns_per_byte = 1.0 (* placeholder; re-measured per attempt *) }

(* ------------------------------------------------------------------ *)
(* One run: migration control loop + open-loop request plane           *)
(* ------------------------------------------------------------------ *)

(* Pause between a failed attempt's rollback and the next try: the
   control plane's own reaction time, not a modeled cost. *)
let redo_pause_ms = 50.0

let breaker_cfg =
  { Breaker.b_failure_threshold = 2;
    b_open_ms = 400.0;
    b_probe_successes = 1;
    b_cooldown_jitter = 0.2 }

let run c (scfg : Session.config) ~fresh ~seed =
  validate c;
  let root = Rng.create seed in
  let sc = scenario_of c (Rng.split root) in
  let est0 = calibrate scfg (fresh ()) in
  let planned = sc.sc_bad_rack in
  let link = Transport.link scfg.Session.cfg_transport in
  let pool = Rack.create ~racks ~servers_each in
  let breakers =
    Array.init racks (fun r ->
        Breaker.create
          ~seed:(Int64.add seed (Int64.of_int ((r * 7) + 1)))
          ~cfg:breaker_cfg ())
  in
  let quarantine = Quarantine.create () in
  let deadlines = Deadline.create () in
  let events = ref [] in
  let event ~ms kind detail =
    events := { ev_ms = ms; ev_kind = kind; ev_detail = detail } :: !events
  in
  let rung = ref Degrade.Full in
  let deepest = ref Degrade.Full in
  let rung_rank = function
    | Degrade.Full -> 0 | Hybrid_only -> 1 | Precopy_only -> 2 | Postponed -> 3
  in
  let sink r = if rung_rank r > rung_rank !deepest then deepest := r in
  let degrade_to ~ms r =
    rung := r;
    sink r;
    event ~ms "degrade" (Degrade.rung_name r)
  in
  let p = fresh () in
  let windows = ref [] in           (* (start, stop), chronological, disjoint *)
  let now = ref c.su_migrate_at_ms in
  let attempts = ref 0 in
  let postpones = ref 0 in
  let sheds = ref 0 in
  let cancels = ref 0 in
  let committed = ref None in  (* (rack, transport, fault, outcome, resume) *)
  let transport_for ~rack ~lazy_ ~attempt =
    let base = if lazy_ then Transport.page_server link else Transport.scp link in
    let base =
      if rack_bad sc ~rack ~now_ms:!now then
        Transport.degraded ~factor:sc.sc_degrade base
      else base
    in
    let jitter =
      if c.su_control then
        Some (Int64.add seed (Int64.of_int ((attempt * 31) + rack)))
      else None
    in
    Transport.retrying ~attempts:4 ?jitter base
  in
  let fault_for ~rack ~attempt =
    if rack_bad sc ~rack ~now_ms:!now then
      Some
        (Fault.make
           ~seed:(Int64.to_int (Int64.add seed (Int64.of_int (attempt * 131))))
           (fault_spec sc))
    else None
  in
  let healthy_est =
    { est0 with
      Budget.e_wire_ns_per_byte = wire_ns_per_byte (Transport.scp link) }
  in
  (* The blackout budget: comfortably above the calibrated healthy
     stop-and-copy blackout, so a clean migration always fits — and a
     4-8x degraded wire does not. *)
  let budget = 1.2 *. Budget.downtime_ms healthy_est Budget.Vanilla in
  (* fixed-mechanism baseline for the control-off arm: whatever the
     budget picker would choose on the healthy calibration numbers *)
  let off_mech = Budget.choose ~budget_ms:budget healthy_est in
  let breaker_fail rack ~ms =
    let was_open = Breaker.state breakers.(rack) = Breaker.Open in
    Breaker.record_failure breakers.(rack) ~now_ms:ms;
    if (not was_open) && Breaker.state breakers.(rack) = Breaker.Open then
      event ~ms "breaker-trip" (Printf.sprintf "rack=%d" rack)
  in
  let admissible_rack r ~now_ms =
    Breaker.allow breakers.(r) ~now_ms
    && Quarantine.admits quarantine ~key:r ~now_ms
  in
  let postpone () =
    incr postpones;
    sink Degrade.Postponed;
    let back = Degrade.postpone_backoff_ms ~attempt:(!postpones - 1) () in
    event ~ms:!now "postpone" (Printf.sprintf "backoff=%.0fms" back);
    now := !now +. back;
    (* conditions are re-evaluated from scratch after the wait *)
    rung := Degrade.Full
  in
  while !committed = None && !attempts < max_attempts do
    incr attempts;
    let attempt = !attempts in
    if c.su_control && !rung = Degrade.Postponed then postpone ()
    else begin
      (* --- placement: shed away from open breakers / quarantine --- *)
      let dest =
        if not c.su_control then Some planned
        else begin
          let admissible =
            List.filter
              (fun r -> admissible_rack r ~now_ms:!now)
              (List.init racks (fun i -> i))
          in
          (* planned rack first so placement prefers it on ties *)
          let ordered =
            List.filter (fun r -> r = planned) admissible
            @ List.filter (fun r -> r <> planned) admissible
          in
          let healthy_est_ms =
            Transport.transfer_ns (Transport.scp link)
              est0.Budget.e_image_bytes
            /. 1e6
          in
          let cands =
            List.map
              (fun r ->
                { Placement.dc_index = r;
                  dc_lowest_slot = r;
                  dc_ops_per_ns =
                    scfg.Session.cfg_dst_node.Node.n_ops_per_ns;
                  dc_core_w = scfg.Session.cfg_dst_node.Node.n_core_w;
                  dc_est_ms = healthy_est_ms })
              ordered
          in
          Option.map
            (fun d -> d.Placement.dc_index)
            (Placement.choose_dest Placement.Latency_aware
               ~page_wait_ms:(fun d ->
                 Rack.wait_ms pool ~rack:d.Placement.dc_index ~now_ms:!now)
               cands)
        end
      in
      match dest with
      | None -> postpone ()
      | Some rack ->
        if c.su_control && rack <> planned then begin
          incr sheds;
          event ~ms:!now "shed" (Printf.sprintf "rack=%d" rack)
        end;
        (* --- mechanism: ladder pin, or the budget picker at Full --- *)
        let probe_wire =
          wire_ns_per_byte (transport_for ~rack ~lazy_:false ~attempt)
        in
        let mech =
          if not c.su_control then Some off_mech
          else
            match Degrade.mechanism !rung with
            | Some m -> Some m
            | None ->
              let m, fits =
                Budget.choose_detail ~budget_ms:budget
                  { est0 with Budget.e_wire_ns_per_byte = probe_wire }
              in
              if fits then Some m
              else begin
                (* The observed wire on this rack fits nothing — that is
                   evidence against the rack. Shed if anywhere else will
                   take the job; degrade the mechanism only when every
                   rack looks this bad. *)
                breaker_fail rack ~ms:!now;
                let alternative =
                  List.exists
                    (fun r -> r <> rack && admissible_rack r ~now_ms:!now)
                    (List.init racks (fun i -> i))
                in
                if alternative then begin
                  now := !now +. redo_pause_ms;
                  None (* skip the session; the next attempt sheds *)
                end
                else begin
                  degrade_to ~ms:!now Degrade.Hybrid_only;
                  Degrade.mechanism Degrade.Hybrid_only
                end
              end
        in
        match mech with
        | None -> ()
        | Some mech ->
        let transport =
          transport_for ~rack ~lazy_:(Budget.needs_lazy mech) ~attempt
        in
        let fault = fault_for ~rack ~attempt in
        let scfg' =
          { scfg with
            Session.cfg_transport = transport;
            cfg_fault = fault;
            cfg_resident_pages = [] }
        in
        let pre =
          if Budget.precopies mech then
            Some
              (Session.precopy scfg' p
                 ~advance:(fun _ms ->
                   ignore (Process.run p ~max_instrs:round_instrs))
                 ~max_rounds
                 ~downtime_budget_ms:budget)
          else None
        in
        let precopy_ms =
          match pre with Some s -> s.Session.pcs_ms | None -> 0.0
        in
        let scfg' =
          { scfg' with
            Session.cfg_resident_pages =
              (match pre with
               | Some s -> s.Session.pcs_resident
               | None -> []) }
        in
        let att =
          Guard.run ~deadlines
            ~budget_ms:(if c.su_control then budget else infinity)
            scfg' p
        in
        let black_start = !now +. precopy_ms in
        let black_stop = black_start +. att.Guard.ga_blackout_ms in
        if att.Guard.ga_blackout_ms > 0.0 then
          windows := (black_start, black_stop) :: !windows;
        (* the eager window occupies a page server on the dest rack, so
           repeated attempts congest the pool other tenants share *)
        ignore
          (Rack.acquire pool ~rack ~now_ms:black_start
             ~service_ms:att.Guard.ga_blackout_ms);
        (match att.Guard.ga_outcome with
         | Ok o ->
           if c.su_control then begin
             Breaker.record_success breakers.(rack) ~now_ms:!now;
             Quarantine.report quarantine ~key:rack ~now_ms:!now ~ok:true
           end;
           event ~ms:black_stop "commit"
             (Printf.sprintf "rack=%d mech=%s rung=%s attempt=%d" rack
                (Budget.mechanism_name mech)
                (Degrade.rung_name !rung)
                attempt);
           committed := Some (rack, transport, fault, o, black_stop)
         | Error e ->
           if c.su_control then begin
             breaker_fail rack ~ms:black_stop;
             Quarantine.report quarantine ~key:rack ~now_ms:!now ~ok:false
           end;
           (match att.Guard.ga_cancelled with
            | Some stage ->
              incr cancels;
              event ~ms:black_stop "deadline-cancel"
                (Printf.sprintf "rack=%d stage=%s" rack (Derr.stage_name stage))
            | None ->
              event ~ms:black_stop "rollback"
                (Printf.sprintf "rack=%d error=%s" rack (Derr.to_string e)));
           (* walk the ladder on the won't-fit signals only: a deadline
              cancel means the projection no longer fits; plain wire
              failures are the breaker's problem, not the mechanism's *)
           if c.su_control && att.Guard.ga_cancelled <> None then
             (match Degrade.next !rung with
              | Some r -> degrade_to ~ms:black_stop r
              | None -> ());
           now := black_stop +. redo_pause_ms)
    end
  done;
  let verdict =
    match !committed with
    | None -> Rolled_back
    | Some _ -> if !deepest = Degrade.Full then Committed else Degraded !deepest
  in
  if verdict = Rolled_back then
    event ~ms:!now "rollback" "attempts exhausted; source kept running";
  (* ---------------- the open-loop request plane ---------------- *)
  let windows = List.rev !windows in
  let blackout_total =
    List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0.0 windows
  in
  let mig_start = c.su_migrate_at_ms in
  (* the migration window ends at the resume, or after a rollback at the
     last attempt's window *)
  let mig_end =
    match (!committed, List.rev windows) with
    | Some (_, _, _, _, stop), _ | None, (_, stop) :: _ -> stop
    | None, [] -> mig_start
  in
  let page_bytes =
    int_of_float
      (float_of_int Dapper_binary.Layout.page_size
       *. scfg.Session.cfg_bytes_scale)
  in
  let lazy_owed, dump_pages, stall_ms =
    match !committed with
    | None -> (0, 0, fun _ -> 0.0)
    | Some (rack, transport, fault, o, _) ->
      let stall_ms t0 =
        let fault = if rack_bad sc ~rack ~now_ms:t0 then fault else None in
        let stall =
          Transport.fetch_stall_ns transport ?fault ~page_bytes () /. 1e6
        in
        stall +. snd (Rack.acquire_wait pool ~rack ~now_ms:t0 ~service_ms:stall)
      in
      (o.Session.r_lazy_debt, o.Session.r_dump_pages, stall_ms)
  in
  let timeline =
    { Loadgen.tl_start_ms = mig_start;
      tl_blackouts = windows;
      tl_resume_ms = (if !committed = None then infinity else mig_end);
      tl_track_end_ms = mig_end;
      tl_during_end_ms = mig_end;
      tl_lazy_owed = lazy_owed;
      tl_dump_pages = dump_pages;
      tl_stall_ms = stall_ms }
  in
  let pl =
    Loadgen.play ~requests:c.su_requests ~lanes ~service_src_ms
      ~service_dst_ms ~slo_ms ~rng:root
      ~arrivals:(fun seed -> Arrival.poisson ~seed ~rate_per_ms)
      timeline
  in
  let fp =
    Bytebuf.fnv64_mix
      (Bytebuf.fnv64_mix pl.Loadgen.pl_fingerprint (Int64.of_int !attempts))
      (Int64.of_int (rung_rank !deepest))
  in
  { r_seed = seed;
    r_scenario = sc;
    r_verdict = verdict;
    r_attempts = !attempts;
    r_postpones = !postpones;
    r_sheds = !sheds;
    r_trips = Array.fold_left (fun acc b -> acc + Breaker.trips b) 0 breakers;
    r_cancels = !cancels;
    r_final_rack =
      (match !committed with Some (rk, _, _, _, _) -> Some rk | None -> None);
    r_blackout_ms = blackout_total;
    r_requests = c.su_requests;
    r_ok = pl.Loadgen.pl_ok;
    r_availability = float_of_int pl.Loadgen.pl_ok /. float_of_int c.su_requests;
    r_all = pl.Loadgen.pl_all;
    r_during = pl.Loadgen.pl_during;
    r_events = List.rev !events;
    r_fingerprint = fp }

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

type summary = {
  y_control : bool;
  y_seeds : int;
  y_committed : int;
  y_degraded : int;
  y_rolled_back : int;
  y_postponed : int;          (** runs with at least one postponement *)
  y_attempts : int;
  y_sheds : int;
  y_trips : int;
  y_cancels : int;
  y_blackout_ms : float;
  y_requests : int;
  y_ok : int;
  y_availability : float;
  y_all : Sketch.t;
  y_during : Sketch.t;
}

let summarize ~control runs =
  let all = ref (Sketch.create ()) in
  let during = ref (Sketch.create ()) in
  let c = ref 0 and d = ref 0 and rb = ref 0 and pp = ref 0 in
  let at = ref 0 and sh = ref 0 and tr = ref 0 and ca = ref 0 in
  let bl = ref 0.0 and rq = ref 0 and ok = ref 0 in
  List.iter
    (fun r ->
      (match r.r_verdict with
       | Committed -> incr c
       | Degraded _ -> incr d
       | Rolled_back -> incr rb);
      if r.r_postpones > 0 then incr pp;
      at := !at + r.r_attempts;
      sh := !sh + r.r_sheds;
      tr := !tr + r.r_trips;
      ca := !ca + r.r_cancels;
      bl := !bl +. r.r_blackout_ms;
      rq := !rq + r.r_requests;
      ok := !ok + r.r_ok;
      all := Sketch.merge !all r.r_all;
      during := Sketch.merge !during r.r_during)
    runs;
  { y_control = control;
    y_seeds = List.length runs;
    y_committed = !c;
    y_degraded = !d;
    y_rolled_back = !rb;
    y_postponed = !pp;
    y_attempts = !at;
    y_sheds = !sh;
    y_trips = !tr;
    y_cancels = !ca;
    y_blackout_ms = !bl;
    y_requests = !rq;
    y_ok = !ok;
    y_availability =
      (if !rq = 0 then 1.0 else float_of_int !ok /. float_of_int !rq);
    y_all = !all;
    y_during = !during }

let sweep c scfg ~fresh ~seeds ~seed0 =
  let runs =
    List.init seeds (fun i ->
        run c scfg ~fresh ~seed:(Int64.add seed0 (Int64.of_int i)))
  in
  (runs, summarize ~control:c.su_control runs)

let mig_p99 y =
  if Sketch.count y.y_during = 0 then 0.0 else Sketch.quantile y.y_during 0.99

let summary_line y =
  Printf.sprintf
    "control=%s seeds=%d committed=%d degraded=%d rolled-back=%d postponed=%d \
     attempts=%d sheds=%d trips=%d cancels=%d avail=%.4f mig-p99=%.3f p99=%.3f"
    (if y.y_control then "on" else "off")
    y.y_seeds y.y_committed y.y_degraded y.y_rolled_back y.y_postponed
    y.y_attempts y.y_sheds y.y_trips y.y_cancels y.y_availability (mig_p99 y)
    (if Sketch.count y.y_all = 0 then 0.0 else Sketch.quantile y.y_all 0.99)

let event_lines r =
  List.map
    (fun e ->
      Printf.sprintf "%016Lx %10.2f %-15s %s" r.r_seed e.ev_ms e.ev_kind
        e.ev_detail)
    r.r_events
