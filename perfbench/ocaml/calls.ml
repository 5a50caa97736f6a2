(* The library's public entry points as the benchmark calls them: each
   call is one span, and the exact counters it exposes are added to the
   pass's accumulator. *)

open Dapper_machine
open Dapper_criu
open Dapper_net
module Session = Dapper.Session
module Rewrite = Dapper.Rewrite
module Loadgen = Dapper_traffic.Loadgen
module Fleet_xl = Dapper_cluster.Fleet_xl

let fuel = 400_000_000

let load binary = Span.record "Process.load" (fun () -> Process.load binary)

(* Instructions retired and page faults taken inside one interpreter call. *)
let interpret acc name p f =
  let i0 = p.Process.total_instrs and f0 = Memory.fault_count p.Process.mem in
  let r = Span.record name f in
  Acc.count acc "process.instrs" (Int64.to_int (Int64.sub p.Process.total_instrs i0));
  Acc.count acc "memory.faults" (Memory.fault_count p.Process.mem - f0);
  r

let run acc p ~max_instrs =
  interpret acc "Process.run" p (fun () -> Process.run p ~max_instrs)

let run_to_completion acc p =
  interpret acc "Process.run_to_completion" p (fun () -> Process.run_to_completion p ~fuel)

let add_pause acc (ps : Dapper.Monitor.pause_stats) =
  Acc.count acc "pause.drain_instrs" (Int64.to_int ps.Dapper.Monitor.ps_instrs_drained)

let add_rewrite acc (rw : Rewrite.stats) =
  Acc.count acc "rewrite.work_items" (Rewrite.work_items rw);
  Acc.count acc "rewrite.plan_hits" rw.Rewrite.st_plan_hits;
  Acc.count acc "rewrite.plan_misses" rw.Rewrite.st_plan_misses

let add_transfer acc (tx : Transport.tx_stats) ~bytes =
  Acc.count acc "transfer.attempts" tx.Transport.tx_attempts;
  Acc.count acc "transfer.bytes" bytes

(* The counters of a migration driven as a whole ({!Session.run} or
   inside {!Loadgen.run}): everything the outcome exposes. *)
let add_outcome acc (o : Session.outcome) =
  add_pause acc o.Session.r_pause;
  add_rewrite acc o.Session.r_rewrite;
  add_transfer acc o.Session.r_transfer ~bytes:o.Session.r_image_bytes

let session_run acc cfg p =
  let r = Span.record "Session.run" (fun () -> Session.run cfg p) in
  Result.map
    (fun s ->
      let o = Session.finish s in
      add_outcome acc o;
      o)
    r

(* The six stages, one call each. *)

let pause s = Span.record "Session.pause" (fun () -> Session.pause s)

let dump acc s =
  let r = Span.record "Session.dump" (fun () -> Session.dump s) in
  (match r with
   | Ok d ->
     let st = d.Session.s_state.Session.sd_dump in
     Acc.count acc "dump.bytes" st.Dump.bytes;
     Acc.count acc "dump.pages" st.Dump.pages_dumped
   | Error _ -> ());
  r

let recode s = Span.record "Session.recode" (fun () -> Session.recode s)
let transfer s = Span.record "Session.transfer" (fun () -> Session.transfer s)
let restore s = Span.record "Session.restore" (fun () -> Session.restore s)

let commit acc s =
  let r = Span.record "Session.commit" (fun () -> Session.commit s) in
  (match r with
   | Ok c ->
     let st = c.Session.s_state in
     add_pause acc st.Session.sm_pause;
     add_rewrite acc st.Session.sm_rewrite;
     add_transfer acc (Session.transfer_stats c) ~bytes:st.Session.sm_image_bytes
   | Error _ -> ());
  r

let loadgen acc lg scfg p mech =
  let r = Span.record "Loadgen.run" (fun () -> Loadgen.run lg scfg p mech) in
  (match r with
   | Ok st ->
     add_outcome acc st.Loadgen.ls_outcome;
     Acc.count acc "loadgen.requests" st.Loadgen.ls_requests;
     Acc.count acc "lazy.pages_owed" st.Loadgen.ls_lazy_left;
     (match st.Loadgen.ls_precopy with
      | Some pc ->
        Acc.count acc "precopy.rounds" (List.length pc.Session.pcs_rounds);
        Acc.count acc "precopy.pages_sent" pc.Session.pcs_pages_sent
      | None -> ())
   | Error _ -> ());
  r

let fleet_xl acc cfg kinds =
  let st = Span.record "Fleet_xl.run" (fun () -> Fleet_xl.run cfg kinds) in
  Acc.count acc "fleet_xl.events" st.Fleet_xl.x_events;
  Acc.count acc "fleet_xl.steals" st.Fleet_xl.x_steals;
  st
