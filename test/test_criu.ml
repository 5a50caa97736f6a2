open Dapper_machine
open Dapper_criu
open Dapper
module Link = Dapper_codegen.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

let paused_process () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:300_000);
  (match Monitor.request_pause p ~budget:20_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  (c, p)

let test_dump_requires_quiescence () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  check Alcotest.bool "dump rejects running process" true
    (match Dump.dump p with
     | Error (Dapper_util.Dapper_error.Dump_failed _) -> true
     | _ -> false)

let test_dump_stats () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let stats = Dump.stats_of image in
  check Alcotest.bool "pages dumped" true (stats.Dump.pages_dumped > 0);
  check Alcotest.int "nothing lazy in vanilla mode" 0 stats.Dump.pages_lazy;
  let lazy_image = ok (Dump.dump ~lazy_pages:true p) in
  let lstats = Dump.stats_of lazy_image in
  check Alcotest.bool "lazy leaves pages behind" true (lstats.Dump.pages_lazy > 0);
  check Alcotest.bool "lazy dumps fewer" true (lstats.Dump.pages_dumped < stats.Dump.pages_dumped);
  check Alcotest.bool "lazy image smaller" true (lstats.Dump.bytes < stats.Dump.bytes)

let test_image_read_write_u64 () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  (* find a dumped data page and poke it *)
  let e =
    List.find (fun (e : Images.pagemap_entry) -> e.pm_in_dump) image.Images.is_pagemap
  in
  let addr = Int64.add e.pm_vaddr 16L in
  let image' = Images.write_u64 image addr 0xC0FFEEL in
  check Alcotest.bool "readback" true (Int64.equal (Images.read_u64 image' addr) 0xC0FFEEL);
  check Alcotest.bool "others untouched" true
    (Int64.equal (Images.read_u64 image' (Int64.add addr 8L))
       (Images.read_u64 image (Int64.add addr 8L)))

let test_image_file_errors () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let files = Images.to_files image in
  (* missing file *)
  check Alcotest.bool "missing pagemap" true
    (match Images.of_files (List.remove_assoc "pagemap.img" files) with
     | exception Images.Image_error _ -> true
     | _ -> false);
  (* corrupted protobuf *)
  let corrupt =
    List.map
      (fun (name, bytes) ->
        if name = "mm.img" then (name, String.sub bytes 0 (String.length bytes / 2))
        else (name, bytes))
      files
  in
  check Alcotest.bool "corrupt mm.img" true
    (match Images.of_files corrupt with
     | exception (Images.Image_error _ | Dapper_proto.Proto.Decode_error _) -> true
     | _ -> false)

let test_restore_rejects_wrong_app () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let other = Registry_helpers.other_app () in
  check Alcotest.bool "wrong app rejected" true
    (match Restore.restore image other.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
     | _ -> false)

let test_lazy_restore_without_server_faults () =
  let _, p = paused_process () in
  let image = ok (Dump.dump ~lazy_pages:true p) in
  (* no page source: the first touch of a lazy page (possibly the flag
     clear during restore itself) must fault *)
  match Restore.restore image p.Process.binary with
  | exception Memory.Segfault _ -> ()
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok q ->
    (match Process.run_to_completion q ~fuel:10_000_000 with
     | Process.Crashed _ -> ()
     | _ -> Alcotest.fail "expected a fault without a page server")

let test_crit_rejects_pages_encode () =
  check Alcotest.bool "pages are raw" true
    (match Crit.encode_file "pages-1.img" Dapper_util.Json.Null with
     | exception Crit.Crit_error _ -> true
     | _ -> false)

let test_checkpoint_restore_preserves_everything () =
  (* identity: dump + restore on the same binary continues exactly *)
  let c, p = paused_process () in
  let out_before = Process.stdout_contents p in
  let image = ok (Dump.dump p) in
  let q = ok (Restore.restore image c.Link.cp_x86) in
  Monitor.resume p;
  (match (Process.run_to_completion p ~fuel:50_000_000,
          Process.run_to_completion q ~fuel:50_000_000) with
   | Process.Exited_run a, Process.Exited_run b ->
     check Alcotest.bool "same exit" true (Int64.equal a b);
     check Alcotest.string "same output overall"
       (Process.stdout_contents p)
       (out_before ^ Process.stdout_contents q)
   | _ -> Alcotest.fail "runs did not finish")

let suites =
  [ ( "criu",
      [ Alcotest.test_case "dump requires quiescence" `Quick test_dump_requires_quiescence;
        Alcotest.test_case "dump stats / lazy mode" `Quick test_dump_stats;
        Alcotest.test_case "image read/write u64" `Quick test_image_read_write_u64;
        Alcotest.test_case "image file errors" `Quick test_image_file_errors;
        Alcotest.test_case "restore rejects wrong app" `Quick test_restore_rejects_wrong_app;
        Alcotest.test_case "lazy restore needs server" `Quick test_lazy_restore_without_server_faults;
        Alcotest.test_case "crit pages are raw" `Quick test_crit_rejects_pages_encode;
        Alcotest.test_case "identity checkpoint/restore" `Quick
          test_checkpoint_restore_preserves_everything ] ) ]
