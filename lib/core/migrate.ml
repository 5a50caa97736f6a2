open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_net

type phase_times = Session.phase_times = {
  t_checkpoint_ms : float;
  t_recode_ms : float;
  t_scp_ms : float;
  t_restore_ms : float;
}

let total_ms = Session.total_ms

type page_server_stats = Transport.page_stats = {
  mutable srv_pages : int;
  mutable srv_ns : float;
  mutable srv_retransmits : int;
  mutable srv_backoff_ns : float;
}

type result = Session.outcome = {
  r_process : Process.t;
  r_times : phase_times;
  r_image_bytes : int;
  r_rewrite : Rewrite.stats;
  r_pause : Monitor.pause_stats;
  r_page_server : page_server_stats option;
  r_transfer : Transport.tx_stats;
  r_drained : int;
}

type error = Dapper_error.t

let error_to_string = Dapper_error.to_string

let recode_ns = Session.recode_ns
let checkpoint_ms = Session.checkpoint_ms
let restore_ms = Session.restore_ms

(* Process-global cache/index counters an experiment may want zeroed
   between runs so successive cost reports don't difference across each
   other's traffic. The per-rewrite [Rewrite.stats] counters are already
   scoped (attached {!Plan_cache.counters} sinks) and unaffected. *)
let reset_run_counters () =
  Plan_cache.reset_counters ();
  Stackmap_index.reset_counters ()

(* Cost report with the index/plan-cache observability counters; new
   surfaces only (the fig5/fig7 tables keep their exact seed format). *)
let cost_report (r : result) =
  let t = r.r_times in
  let rw = r.r_rewrite in
  Printf.sprintf
    "checkpoint %.2f ms, recode %.2f ms, scp %.2f ms, restore %.2f ms, total %.2f ms \
     | plan cache %d hit%s / %d miss%s, %d index lookups, %d interval probes"
    t.t_checkpoint_ms t.t_recode_ms t.t_scp_ms t.t_restore_ms (total_ms t)
    rw.Rewrite.st_plan_hits
    (if rw.Rewrite.st_plan_hits = 1 then "" else "s")
    rw.Rewrite.st_plan_misses
    (if rw.Rewrite.st_plan_misses = 1 then "" else "es")
    rw.Rewrite.st_index_lookups rw.Rewrite.st_interval_lookups

let migrate ?(lazy_pages = false) ?(link = Link.infiniband) ?recode_on
    ?(bytes_scale = 1.0) ?(budget = 50_000_000) ?(pipeline = false)
    ?(chunk_bytes = 262_144) ?(recode_workers = 1) ~(src_node : Node.t)
    ~(dst_node : Node.t) ~(dst_bin : Binary.t) ~(src_bin : Binary.t)
    (p : Process.t) =
  let transport =
    if lazy_pages then Transport.page_server link else Transport.scp link
  in
  let cfg =
    { Session.cfg_src_node = src_node;
      cfg_dst_node = dst_node;
      cfg_recode_node = Option.value ~default:src_node recode_on;
      cfg_transport = transport;
      cfg_src_bin = src_bin;
      cfg_dst_bin = dst_bin;
      cfg_bytes_scale = bytes_scale;
      cfg_pause_budget = budget;
      cfg_commit_drain = false;
      cfg_fault = None;
      cfg_pipeline = pipeline;
      cfg_chunk_bytes = chunk_bytes;
      cfg_recode_workers = recode_workers;
      cfg_resident_pages = [] }
  in
  Result.map Session.finish (Session.run cfg p)
