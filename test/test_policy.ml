open Dapper_isa
open Dapper_machine
open Dapper_clite
open Dapper
open Cl
module Link = Dapper_codegen.Link

let check = Alcotest.check

(* Two versions of a program: v2 changes step()'s arithmetic, with the
   same code shape so the linker layout stays compatible. *)
let versioned step_body =
  let m = create "updatable" in
  Cstd.add m;
  func m "step" [ ("x", Dapper_ir.Ir.I64) ] step_body;
  func m "main" [] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 400) (fun b ->
          set b "acc" (add (v "acc") (call "step" [ v "k" ])));
      do_ b (call "print_int" [ v "acc" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "acc") (i 251)));
  finish m

let v1 () = versioned (fun b -> ret b (add (v "x") (i 1)))
let v2 () = versioned (fun b -> ret b (add (v "x") (i 5)))

let test_dsu_changes_behavior_mid_run () =
  let c1 = Link.compile ~app:"updatable" (v1 ()) in
  let c2 = Link.compile ~app:"updatable" (v2 ()) in
  List.iter
    (fun arch ->
      let old_bin = Link.binary_for c1 arch in
      let new_bin = Link.binary_for c2 arch in
      check Alcotest.bool "step changed" true
        (List.mem "step" (Dsu.changed_functions ~old_bin ~new_bin));
      let p = Process.load old_bin in
      ignore (Process.run p ~max_instrs:3_000);
      match Dsu.update p ~old_bin ~new_bin with
      | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
      | Ok q ->
        (match Process.run_to_completion q ~fuel:10_000_000 with
         | Process.Exited_run _ ->
           let out = Process.stdout_contents q in
           (* pure v1: sum(k+1) = 80200; pure v2: sum(k+5) = 81800.
              a mid-run update lands strictly in between *)
           let acc = int_of_string (String.trim out) in
           check Alcotest.bool
             (Printf.sprintf "%s: mixed result %d" (Arch.name arch) acc)
             true
             (acc > 80200 && acc < 81800)
         | _ -> Alcotest.fail "updated process did not finish"))
    Arch.all

let test_dsu_refuses_active_function () =
  (* main itself always sits on the stack; updating it must be refused *)
  let with_main main_extra =
    let m = create "updatable" in
    Cstd.add m;
    func m "step" [ ("x", Dapper_ir.Ir.I64) ] (fun b -> ret b (add (v "x") (i 1)));
    func m "main" [] (fun b ->
        decl b "acc" (i main_extra);
        for_ b "k" (i 0) (i 400) (fun b ->
            set b "acc" (add (v "acc") (call "step" [ v "k" ])));
        ret b (rem_ (v "acc") (i 251)));
    finish m
  in
  let c1 = Link.compile ~app:"updatable" (with_main 0) in
  let c2 = Link.compile ~app:"updatable" (with_main 3) in
  let p = Process.load c1.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:3_000);
  match Dsu.update ~retries:0 p ~old_bin:c1.Link.cp_x86 ~new_bin:c2.Link.cp_x86 with
  | Error (Dapper_util.Dapper_error.Active_function "main") -> ()
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok _ -> Alcotest.fail "update of an active function must be refused"

let test_dsu_refuses_layout_change () =
  (* a version that grows a function beyond its padding moves symbols *)
  let big =
    versioned (fun b ->
        decl b "t" (v "x");
        for_ b "j" (i 0) (i 3) (fun b ->
            set b "t" (add (mul (v "t") (i 3)) (bxor (v "t") (i 11))));
        ret b (add (v "t") (i 1)))
  in
  let c1 = Link.compile ~app:"updatable" (v1 ()) in
  let c2 = Link.compile ~app:"updatable" big in
  let p = Process.load c1.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:3_000);
  match Dsu.update p ~old_bin:c1.Link.cp_x86 ~new_bin:c2.Link.cp_x86 with
  | Error (Dapper_util.Dapper_error.Layout_incompatible _) -> ()
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok _ -> Alcotest.fail "incompatible layout must be refused"

let test_policy_identity_and_cross_isa () =
  let c = Registry_helpers.compute () in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_arm in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  (* identity first, then cross-ISA, chained through Policy *)
  match Policy.apply p ~current:c.Link.cp_x86 Policy.Identity with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok st1 ->
    ignore (Process.run st1.ap_process ~max_instrs:100_000);
    (match Policy.apply st1.ap_process ~current:st1.ap_binary
             (Policy.Cross_isa c.Link.cp_arm) with
     | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
     | Ok st2 ->
       (match Process.run_to_completion st2.ap_process ~fuel:50_000_000 with
        | Process.Exited_run v ->
          check Alcotest.bool "exit equal" true (Int64.equal v expected_code);
          check Alcotest.string "output equal" expected_out
            (Process.stdout_contents p
             ^ Process.stdout_contents st1.ap_process
             ^ Process.stdout_contents st2.ap_process)
        | _ -> Alcotest.fail "chained run failed"))

let test_policy_periodic_rerandomization () =
  let c = Registry_helpers.compute () in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_x86 in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  let rng = Dapper_util.Rng.create 404L in
  match
    Policy.rerandomize_periodically p ~current:c.Link.cp_x86 ~rng ~interval:150_000
      ~epochs:4
  with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok (final, epochs) ->
    check Alcotest.bool "several epochs ran" true (epochs >= 2);
    check Alcotest.bool "binary actually changed" true
      (final.ap_binary != c.Link.cp_x86);
    let collect = Buffer.create 64 in
    Buffer.add_string collect (Process.stdout_contents p);
    (* note: intermediate processes' output is accumulated by the caller
       in a real deployment; here only first and final hold output *)
    (match Process.run_to_completion final.ap_process ~fuel:50_000_000 with
     | Process.Exited_run v ->
       check Alcotest.bool "exit preserved" true (Int64.equal v expected_code);
       ignore expected_out;
       ignore collect
     | Process.Crashed _ | Process.Idle | Process.Progress ->
       Alcotest.fail "re-randomized process failed")

let suites =
  [ ( "policy-dsu",
      [ Alcotest.test_case "dsu mid-run update" `Quick test_dsu_changes_behavior_mid_run;
        Alcotest.test_case "dsu refuses active function" `Quick test_dsu_refuses_active_function;
        Alcotest.test_case "dsu refuses layout change" `Quick test_dsu_refuses_layout_change;
        Alcotest.test_case "policy identity+cross-isa chain" `Quick
          test_policy_identity_and_cross_isa;
        Alcotest.test_case "policy periodic rerandomization" `Quick
          test_policy_periodic_rerandomization ] ) ]
