open Dapper_isa
open Dapper_machine
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let check = Alcotest.check
let fuel = 300_000_000

let run_native c arch =
  let p = Process.load (Link.binary_for c arch) in
  match Process.run_to_completion p ~fuel with
  | Process.Exited_run code -> (code, Process.stdout_contents p)
  | Process.Crashed cr ->
    Alcotest.fail
      (Printf.sprintf "%s crashed on %s: pc=0x%Lx %s" c.Link.cp_app (Arch.name arch)
         cr.cr_pc cr.cr_reason)
  | Process.Idle -> Alcotest.fail (c.Link.cp_app ^ ": deadlock")
  | Process.Progress -> Alcotest.fail (c.Link.cp_app ^ ": out of fuel")

(* Every benchmark must produce identical output on both ISAs and print
   a nonempty checksum line. *)
let test_cross_isa_equivalence (sp : Registry.spec) () =
  let c = Registry.compiled sp in
  let cx, ox = run_native c Arch.X86_64 in
  let ca, oa = run_native c Arch.Aarch64 in
  check Alcotest.bool "exit codes equal" true (Int64.equal cx ca);
  check Alcotest.string "stdout equal" ox oa;
  check Alcotest.bool "output nonempty" true (String.length ox > 0)

(* Live-migrate each benchmark mid-run and compare observables. *)
let test_migration (sp : Registry.spec) () =
  let c = Registry.compiled sp in
  let _, expected = run_native c Arch.Aarch64 in
  let expected_code, _ = run_native c Arch.Aarch64 in
  let p = Process.load c.Link.cp_x86 in
  (match Process.run p ~max_instrs:400_000 with
   | Process.Progress -> ()
   | _ -> Alcotest.fail "finished before migration point");
  let cfg = Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm in
  match Result.map Session.finish (Session.run cfg p) with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    let before = Process.stdout_contents p in
    (match Process.run_to_completion r.Session.r_process ~fuel with
     | Process.Exited_run code ->
       check Alcotest.bool "exit equal" true (Int64.equal code expected_code);
       check Alcotest.string "stdout equal" expected
         (before ^ Process.stdout_contents r.Session.r_process)
     | Process.Crashed cr ->
       Alcotest.fail
         (Printf.sprintf "crashed after migration: pc=0x%Lx %s" cr.cr_pc cr.cr_reason)
     | Process.Idle | Process.Progress -> Alcotest.fail "did not finish after migration")

let migration_targets =
  [ "npb-cg.A"; "npb-ft.A"; "linpack"; "redis"; "blackscholes"; "swaptions"; "nbody" ]

let suites =
  [ ( "workloads-cross-isa",
      List.map
        (fun sp ->
          Alcotest.test_case sp.Registry.sp_name `Slow (test_cross_isa_equivalence sp))
        (Registry.all ()) );
    ( "workloads-migration",
      List.map
        (fun name ->
          Alcotest.test_case name `Slow (test_migration (Registry.find name)))
        migration_targets ) ]
