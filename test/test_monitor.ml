open Dapper_machine
open Dapper_clite
open Dapper
open Cl
module Link = Dapper_codegen.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

(* A program whose main sits in a long call-free loop: the paper's
   function-boundary equivalence points cannot interrupt it. *)
let callfree_module () =
  let m = create "callfree" in
  Cstd.add m;
  func m "main" [] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 3_000_000) (fun b ->
          set b "acc" (add (v "acc") (band (v "k") (i 7))));
      ret b (rem_ (v "acc") (i 97)));
  finish m

let test_drain_budget_exhausted () =
  let c = Link.compile ~app:"callfree" (callfree_module ()) in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  match Monitor.request_pause p ~budget:200_000 with
  | Error Dapper_util.Dapper_error.Pause_budget_exhausted -> ()
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok _ -> Alcotest.fail "call-free loop should not be pausable at function entries"

let test_backedge_checkers_rescue () =
  (* the same program becomes pausable with loop-header checkers *)
  let opts = { Dapper_codegen.Opts.default with backedge_checkers = true } in
  let c = Link.compile ~opts ~app:"callfree" (callfree_module ()) in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  match Monitor.request_pause p ~budget:200_000 with
  | Ok stats -> check Alcotest.bool "trapped quickly" true (stats.ps_trapped = 1)
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)

let test_backedge_migration_correct () =
  (* a thread paused at a loop-header equivalence point must migrate *)
  let opts = { Dapper_codegen.Opts.default with backedge_checkers = true } in
  let c = Link.compile ~opts ~app:"callfree" (callfree_module ()) in
  let native = Process.load c.Link.cp_arm in
  let expected =
    match Process.run_to_completion native ~fuel:100_000_000 with
    | Process.Exited_run v -> v
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:2_000_000);
  (match Monitor.request_pause p ~budget:1_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  let image = ok (Dapper_criu.Dump.dump p) in
  let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  let q = ok (Dapper_criu.Restore.restore image' c.Link.cp_arm) in
  match Process.run_to_completion q ~fuel:100_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit equal after backedge migration" true (Int64.equal v expected)
  | _ -> Alcotest.fail "migrated run failed"

let test_tampered_trap_rejected () =
  (* a SIGTRAP whose pc is not a checker resume address must be refused
     (the paper's defense against attacker-raised traps) *)
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  let th = Process.thread p 0 in
  th.Process.status <- Process.Trapped;
  th.Process.pc <- Int64.add c.Link.cp_x86.bin_anchors.a_entry 1L;
  match Monitor.request_pause p ~budget:1_000_000 with
  | Error (Dapper_util.Dapper_error.Not_at_equivalence_point _) -> ()
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok _ -> Alcotest.fail "tampered trap accepted"

let test_critical_section_masks_checker () =
  (* a lock holder must not pause inside the critical region; at dump
     time no mutex can be held by a paused-at-checker thread *)
  let m = create "crit" in
  Cstd.add m;
  global m "mtx" 8;
  global m "shared" 8;
  func m "touch" [] (fun b -> ret b (add (v "shared") (i 1)));
  func m "main" [] (fun b ->
      do_ b (call "lock" [ addr "mtx" ]);
      for_ b "k" (i 0) (i 200) (fun b ->
          set b "shared" (call "touch" []));
      do_ b (call "unlock" [ addr "mtx" ]);
      for_ b "k2" (i 0) (i 200) (fun b ->
          set b "shared" (call "touch" []));
      ret b (v "shared"));
  let c = Link.compile ~app:"crit" (finish m) in
  let p = Process.load c.Link.cp_x86 in
  (* request the pause while the lock is held *)
  ignore (Process.run p ~max_instrs:600);
  (match Monitor.request_pause p ~budget:10_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  let mtx_addr =
    (Option.get (Dapper_binary.Binary.find_symbol c.Link.cp_x86 "mtx")).sym_addr
  in
  check Alcotest.bool "mutex released before pause" true
    (Int64.equal (Process.peek_data p mtx_addr) 0L);
  Monitor.resume p;
  match Process.run_to_completion p ~fuel:10_000_000 with
  | Process.Exited_run v -> check Alcotest.int "completes correctly" 400 (Int64.to_int v)
  | _ -> Alcotest.fail "did not complete after resume"

let test_cancel_is_clean () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:50_000);
  (match Monitor.request_pause p ~budget:20_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  Monitor.cancel p;
  let flag = c.Link.cp_x86.bin_anchors.a_flag in
  check Alcotest.bool "flag lowered" true (Int64.equal (Process.peek_data p flag) 0L);
  check Alcotest.bool "threads runnable again" true (not (Process.all_quiescent p))

let test_pause_is_idempotent_under_repeat () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:50_000);
  (match Monitor.request_pause p ~budget:20_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  (* pausing an already-paused process succeeds with zero drain *)
  match Monitor.request_pause p ~budget:1_000 with
  | Ok stats ->
    check Alcotest.bool "no extra drain" true (stats.ps_instrs_drained = 0L)
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)

let test_blocked_threads_rolled_back () =
  (* main blocks in join while a worker spins; at pause time the main
     thread must be rolled back to the call-site equivalence point *)
  let m = create "joiner" in
  Cstd.add m;
  func m "worker" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 50_000) (fun b ->
          set b "acc" (add (v "acc") (call "abs64" [ v "k" ])));
      ret b (v "acc"));
  func m "main" [] (fun b ->
      decl b "t" (call "spawn" [ fnptr "worker"; i 1 ]);
      decl b "r" (call "join" [ v "t" ]);
      do_ b (call "print_int" [ v "r" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "r") (i 251)));
  let c = Link.compile ~app:"joiner" (finish m) in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_x86 in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native joiner failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:60_000);
  (match Monitor.request_pause p ~budget:30_000_000 with
   | Ok stats ->
     check Alcotest.bool "main rolled back out of join" true (stats.ps_rolled_back >= 1)
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  (* and the paused process must still migrate + finish correctly *)
  let image = ok (Dapper_criu.Dump.dump p) in
  let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  let q = ok (Dapper_criu.Restore.restore image' c.Link.cp_arm) in
  match Process.run_to_completion q ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit equal" true (Int64.equal v expected_code);
    check Alcotest.string "out equal" expected_out
      (Process.stdout_contents p ^ Process.stdout_contents q)
  | _ -> Alcotest.fail "migrated joiner failed"

let suites =
  [ ( "monitor",
      [ Alcotest.test_case "drain budget exhausted" `Quick test_drain_budget_exhausted;
        Alcotest.test_case "backedge checkers rescue" `Quick test_backedge_checkers_rescue;
        Alcotest.test_case "backedge migration correct" `Quick test_backedge_migration_correct;
        Alcotest.test_case "tampered trap rejected" `Quick test_tampered_trap_rejected;
        Alcotest.test_case "critical section masking" `Quick test_critical_section_masks_checker;
        Alcotest.test_case "cancel is clean" `Quick test_cancel_is_clean;
        Alcotest.test_case "pause idempotent" `Quick test_pause_is_idempotent_under_repeat;
        Alcotest.test_case "blocked threads rolled back" `Quick
          test_blocked_threads_rolled_back ] ) ]
