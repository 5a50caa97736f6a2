open Dapper_isa
open Dapper_binary
open Dapper_machine
open Dapper
module Link = Dapper_codegen.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

let reference () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_arm in
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v -> (c, v, Process.stdout_contents p)
  | _ -> Alcotest.fail "reference run failed"

let pause_and_dump p =
  (match Monitor.request_pause p ~budget:30_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  ok (Dapper_criu.Dump.dump p)

(* Property: migration is transparent at a *random* point, not just the
   handpicked ones in the integration tests. *)
let qcheck_migration_any_point =
  QCheck.Test.make ~name:"migration transparent at random points" ~count:8
    QCheck.(int_range 2_000 900_000)
    (fun warmup ->
      let c, code, out = reference () in
      let p = Process.load c.Link.cp_x86 in
      match Process.run p ~max_instrs:warmup with
      | Process.Exited_run v ->
        (* finished before the point: still must match the reference *)
        Int64.equal v code && String.equal (Process.stdout_contents p) out
      | Process.Progress ->
        let image = pause_and_dump p in
        let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
        let q = ok (Dapper_criu.Restore.restore image' c.Link.cp_arm) in
        (match Process.run_to_completion q ~fuel:50_000_000 with
         | Process.Exited_run v ->
           Int64.equal v code
           && String.equal (Process.stdout_contents p ^ Process.stdout_contents q) out
         | _ -> false)
      | _ -> false)

let test_chained_migration () =
  (* x86 -> arm -> x86: the paper notes the target is decided by the
     executable, so rewriting must compose *)
  let c, code, out = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let image = pause_and_dump p in
  let image_arm, _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  let q = ok (Dapper_criu.Restore.restore image_arm c.Link.cp_arm) in
  ignore (Process.run q ~max_instrs:120_000);
  let image2 = pause_and_dump q in
  let image_x86, _ = ok (Rewrite.rewrite image2 ~src:c.Link.cp_arm ~dst:c.Link.cp_x86) in
  let r = ok (Dapper_criu.Restore.restore image_x86 c.Link.cp_x86) in
  match Process.run_to_completion r ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit equal" true (Int64.equal v code);
    check Alcotest.string "output equal" out
      (Process.stdout_contents p ^ Process.stdout_contents q ^ Process.stdout_contents r)
  | _ -> Alcotest.fail "second migration failed"

let test_rewrite_rejects_mismatched_binaries () =
  let c, _, _ = reference () in
  let other = Registry_helpers.other_app () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  check Alcotest.bool "wrong src arch" true
    (match Rewrite.rewrite image ~src:c.Link.cp_arm ~dst:c.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false);
  check Alcotest.bool "wrong app" true
    (match Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:other.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false)

(* Tamper with the source stack maps: the rewriter must fail loudly, not
   silently corrupt state. *)
let test_tampered_stackmaps_detected () =
  let c, _, _ = reference () in
  let tamper (bin : Binary.t) =
    { bin with
      bin_stackmaps =
        List.map
          (fun (fm : Stackmap.func_map) ->
            { fm with
              fm_eqpoints =
                List.map
                  (fun (ep : Stackmap.eqpoint) ->
                    { ep with
                      ep_live =
                        List.filter
                          (fun (lv : Stackmap.live_value) ->
                            match lv.lv_key with Stackmap.Temp _ -> false | _ -> true)
                          ep.ep_live })
                  fm.fm_eqpoints })
          bin.bin_stackmaps }
  in
  ignore c;
  (* a program whose loop keeps a temporary live across a call, so every
     checkpoint inside the loop must carry a Temp record *)
  let m =
    let open Dapper_clite.Cl in
    let m = create "temps" in
    Dapper_clite.Cstd.add m;
    func m "id" [ ("x", Dapper_ir.Ir.I64) ] (fun b -> ret b (v "x"));
    func m "main" [] (fun b ->
        decl b "s" (i 0);
        for_ b "k" (i 0) (i 100_000) (fun b ->
            set b "s" (add (v "s") (call "id" [ v "k" ])));
        ret b (rem_ (v "s") (i 251)));
    finish m
  in
  let ct = Link.compile ~app:"temps" m in
  let tampered = tamper ct.Link.cp_x86 in
  let p = Process.load ct.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:50_000);
  let image = pause_and_dump p in
  check Alcotest.bool "missing live values detected" true
    (match Rewrite.rewrite image ~src:tampered ~dst:ct.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false)

let test_corrupt_return_address_detected () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  (* smash the innermost frame's saved return address in the image *)
  let tc = List.hd image.Dapper_criu.Images.is_cores in
  let fp = tc.tc_regs.(Arch.fp Arch.X86_64) in
  let image' =
    Dapper_criu.Images.write_u64 image (Int64.add fp 8L) 0xDEAD_BEEFL
  in
  check Alcotest.bool "unwind fails on corrupt stack" true
    (match Rewrite.rewrite image' ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _ | Dapper_util.Dapper_error.Unwind_failed _) -> true
     | _ -> false)

let test_rewrite_preserves_heap_and_globals () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  let image = pause_and_dump p in
  let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  (* every dumped non-stack, non-code page must be byte-identical *)
  let is_stack pn =
    let a = Layout.addr_of_page pn in
    Int64.compare a (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
  in
  let is_code pn =
    let a = Layout.addr_of_page pn in
    Int64.compare a Layout.code_base >= 0 && Int64.compare a Layout.data_base < 0
  in
  let flag_pn = Layout.page_of_addr c.Link.cp_x86.bin_anchors.a_flag in
  List.iter
    (fun (e : Dapper_criu.Images.pagemap_entry) ->
      if e.pm_in_dump then
        for k = 0 to e.pm_npages - 1 do
          let pn = Layout.page_of_addr e.pm_vaddr + k in
          if (not (is_stack pn)) && (not (is_code pn)) && pn <> flag_pn then
            match (Dapper_criu.Images.read_page image pn,
                   Dapper_criu.Images.read_page image' pn) with
            | Some a, Some b ->
              check Alcotest.bool (Printf.sprintf "page %d preserved" pn) true (a = b)
            | _ -> Alcotest.fail "page disappeared"
        done)
    image.Dapper_criu.Images.is_pagemap

let test_rewrite_stats_sensible () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  let image = pause_and_dump p in
  let _, st = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  check Alcotest.bool "threads" true (st.Rewrite.st_threads = 1);
  check Alcotest.bool "frames >= 1" true (st.Rewrite.st_frames >= 1);
  check Alcotest.bool "values >= frames" true (st.Rewrite.st_values >= st.Rewrite.st_frames);
  check Alcotest.bool "work positive" true (Rewrite.work_items st > 0)

(* Property: shuffled binaries are behaviour-preserving for any seed. *)
let qcheck_shuffle_any_seed =
  QCheck.Test.make ~name:"shuffle preserves behaviour for any seed" ~count:10
    QCheck.int64
    (fun seed ->
      let c, _, _ = reference () in
      let code, out =
        let p = Process.load c.Link.cp_x86 in
        match Process.run_to_completion p ~fuel:50_000_000 with
        | Process.Exited_run v -> (v, Process.stdout_contents p)
        | _ -> failwith "x86 native failed"
      in
      let shuffled, _ = Shuffle.shuffle_binary (Dapper_util.Rng.create seed) c.Link.cp_x86 in
      let p = Process.load shuffled in
      match Process.run_to_completion p ~fuel:50_000_000 with
      | Process.Exited_run v ->
        Int64.equal v code && String.equal (Process.stdout_contents p) out
      | _ -> false)

let suites =
  [ ( "rewrite",
      [ QCheck_alcotest.to_alcotest qcheck_migration_any_point;
        Alcotest.test_case "chained x86->arm->x86" `Quick test_chained_migration;
        Alcotest.test_case "mismatched binaries rejected" `Quick
          test_rewrite_rejects_mismatched_binaries;
        Alcotest.test_case "tampered stackmaps detected" `Quick
          test_tampered_stackmaps_detected;
        Alcotest.test_case "corrupt return address detected" `Quick
          test_corrupt_return_address_detected;
        Alcotest.test_case "heap/globals preserved" `Quick
          test_rewrite_preserves_heap_and_globals;
        Alcotest.test_case "stats sensible" `Quick test_rewrite_stats_sensible;
        QCheck_alcotest.to_alcotest qcheck_shuffle_any_seed ] ) ]
