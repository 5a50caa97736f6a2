(* Observability plane: trace well-formedness on the simulated clock,
   the pinned migration cost report, and replay determinism. *)

open Dapper_machine
open Dapper
module Trace = Dapper_obs.Trace
module Link = Dapper_codegen.Link
module Oracle = Dapper_verify.Oracle
module Corpus = Dapper_verify.Corpus

let check = Alcotest.check

(* Replay the event stream with a stack: every End must close the
   innermost open Begin, timestamps never decrease, and a finished
   trace leaves no span open. *)
let check_well_formed events =
  let stack = ref [] in
  let last_ts = ref neg_infinity in
  List.iter
    (fun (e : Trace.event) ->
      check Alcotest.bool "monotone timestamps" true (e.Trace.ev_ts_ns >= !last_ts);
      last_ts := e.Trace.ev_ts_ns;
      match e.Trace.ev_phase with
      | Trace.Begin -> stack := e.Trace.ev_name :: !stack
      | Trace.End ->
        (match !stack with
         | top :: rest ->
           check Alcotest.string "exit matches innermost open span" top
             e.Trace.ev_name;
           stack := rest
         | [] -> Alcotest.fail "End event with no open span"))
    events;
  check Alcotest.int "all spans closed" 0 (List.length !stack)

let migrate_once () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let cfg = Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm in
  match Result.map Session.finish (Session.run cfg p) with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r -> r

(* ----- the trace sink ----- *)

let test_trace_disabled_is_noop () =
  Trace.stop ();
  Trace.reset ();
  Trace.enter "ghost";
  Trace.advance 5.0e6;
  Trace.leave ();
  Trace.leaf "ghost-leaf" ~dur_ns:1.0e6;
  check Alcotest.int "nothing recorded while disabled" 0
    (List.length (Trace.events ()));
  check (Alcotest.float 0.0) "clock pinned at zero" 0.0 (Trace.now_ns ())

let test_trace_clock_semantics () =
  Trace.start ();
  Trace.enter "outer";
  Trace.advance 2.0e6;
  Trace.enter "inner";
  Trace.advance 3.0e6;
  (* explicit duration shorter than what children charged: the clock
     never moves backwards *)
  Trace.leave ~dur_ns:1.0e6 ();
  check (Alcotest.float 0.0) "clock kept by bigger child charge" 5.0e6
    (Trace.now_ns ());
  (* explicit duration longer than charges: clock jumps forward *)
  Trace.leave ~dur_ns:9.0e6 ();
  check (Alcotest.float 0.0) "clock jumps to begin + dur" 9.0e6 (Trace.now_ns ());
  check Alcotest.bool "leave with no open span raises" true
    (match Trace.leave () with
     | exception Invalid_argument _ -> true
     | () -> false);
  check_well_formed (Trace.events ());
  check (Alcotest.float 0.0) "outer span total" 9.0
    (Trace.total_ms "outer");
  check (Alcotest.float 0.0) "inner span total" 3.0
    (Trace.total_ms "inner");
  Trace.stop ();
  Trace.reset ()

(* Regression: enter/leave pairing used to leak the open span when the
   instrumented code raised — the next leave then closed the wrong span
   (or failed) far from the real fault. with_span must close exactly
   once on every exit path, recording the exception as a closing arg. *)
let test_with_span_closes_on_raise () =
  Trace.start ();
  let exception Boom in
  check Alcotest.bool "exception re-raised" true
    (match
       Trace.with_span "outer" (fun _ ->
           Trace.with_span "doomed" (fun c ->
               Trace.set_dur c 4.0e6;
               Trace.add_arg c "stage" "mid";
               raise Boom))
     with
    | exception Boom -> true
    | () -> false);
  check Alcotest.int "no span leaked by the raise" 0 (Trace.open_spans ());
  Trace.stop ();
  let events = Trace.events () in
  check_well_formed events;
  (* the doomed span's End event carries the accumulated args plus the
     appended exception marker, and its set_dur still moved the clock *)
  (match
     List.find_opt
       (fun (e : Trace.event) ->
         e.Trace.ev_phase = Trace.End && e.Trace.ev_name = "doomed")
       events
   with
  | None -> Alcotest.fail "doomed span has no End event"
  | Some e ->
    check Alcotest.bool "closing arg recorded" true
      (List.mem_assoc "stage" e.Trace.ev_args);
    check Alcotest.bool "exception arg appended" true
      (List.mem_assoc "exception" e.Trace.ev_args));
  check (Alcotest.float 0.0) "set_dur applied despite the raise" 4.0
    (Trace.total_ms "doomed");
  Trace.reset ()

let test_traced_migration_well_formed () =
  Trace.start ();
  let r = migrate_once () in
  Trace.stop ();
  let events = Trace.events () in
  check Alcotest.bool "events recorded" true (events <> []);
  check Alcotest.int "no span left open" 0 (Trace.open_spans ());
  check_well_formed events;
  (* per-stage span totals agree with the session's phase times (eager
     scp: nothing charges the clock outside the stage spans) *)
  let t = r.Session.r_times in
  let close what want got =
    check Alcotest.bool
      (Printf.sprintf "%s: %.6f ~ %.6f" what want got)
      true
      (abs_float (want -. got) < 1e-6)
  in
  let stage s = Trace.total_ms ~cat:"session" s in
  close "checkpoint = pause + dump spans" t.Session.t_checkpoint_ms
    (stage "pause" +. stage "dump");
  close "recode span" t.Session.t_recode_ms (stage "recode");
  close "transfer span" t.Session.t_scp_ms (stage "transfer");
  close "restore = restore + commit spans" t.Session.t_restore_ms
    (stage "restore" +. stage "commit");
  (* the Chrome export carries one object per event *)
  (match Trace.to_chrome_json () with
   | Dapper_util.Json.Obj kvs ->
     (match List.assoc "traceEvents" kvs with
      | Dapper_util.Json.List evs ->
        check Alcotest.int "one JSON object per event" (List.length events)
          (List.length evs)
      | _ -> Alcotest.fail "traceEvents is not a list")
   | _ -> Alcotest.fail "chrome export is not an object");
  Trace.reset ()

(* ----- the cost report ----- *)

(* The one-line cost report is the user-visible view of [Rewrite.stats]
   and the phase times; pin it for one corpus program migrated x86->arm
   at its first equivalence point. The plan cache is cleared first so
   the hit/miss counts do not depend on which tests ran before. *)
let test_cost_report_pinned () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  let p = Process.load c.Link.cp_x86 in
  if not (Oracle.advance_to_point p ~budget:30_000_000 0) then
    Alcotest.fail "mini-quickstart exited before its first equivalence point";
  Plan_cache.clear ();
  let cfg = Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm in
  match Result.map Session.finish (Session.run cfg p) with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    check Alcotest.string "cost report"
      "checkpoint 3.00 ms, recode 20.97 ms, scp 0.07 ms, restore 3.00 ms, \
       total 27.04 ms | plan cache 0 hits / 1 miss, 4 index lookups, \
       0 interval probes"
      (Session.cost_report r)

(* ----- replay determinism ----- *)

let chaos_trace () =
  let c = Option.get (Corpus.find "mini-sieve") in
  Trace.start ();
  (match
     Dapper_verify.Chaos.run_one ~spec:(Dapper_util.Fault.uniform 0.2) ~seed:3
       ~src:Dapper_isa.Arch.X86_64 ~dst:Dapper_isa.Arch.Aarch64 c
   with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Dapper_verify.Chaos.failure_to_string f));
  Trace.stop ();
  let json = Dapper_util.Json.to_string (Trace.to_chrome_json ()) in
  Trace.reset ();
  json

let test_chaos_replay_trace_identical () =
  let t1 = chaos_trace () in
  let t2 = chaos_trace () in
  check Alcotest.bool "trace non-trivial" true (String.length t1 > 2);
  check Alcotest.int "same size" (String.length t1) (String.length t2);
  check Alcotest.bool "two replays of one seed: byte-identical traces" true
    (String.equal t1 t2)

let suites =
  [ ( "obs",
      [ Alcotest.test_case "trace disabled is a no-op" `Quick
          test_trace_disabled_is_noop;
        Alcotest.test_case "trace clock semantics" `Quick test_trace_clock_semantics;
        Alcotest.test_case "with_span closes on raise" `Quick
          test_with_span_closes_on_raise;
        Alcotest.test_case "traced migration well-formed" `Quick
          test_traced_migration_well_formed;
        Alcotest.test_case "cost report pinned (mini-quickstart)" `Quick
          test_cost_report_pinned;
        Alcotest.test_case "chaos replay: byte-identical traces" `Quick
          test_chaos_replay_trace_identical ] ) ]
