open Dapper_isa
open Dapper_binary
open Dapper_machine
open Dapper_clite
open Cl
module Link = Dapper_codegen.Link

let check = Alcotest.check

(* ----- memory ----- *)

let test_memory_cross_page () =
  let mem = Memory.create () in
  Memory.map_page mem 10 (Bytes.make Layout.page_size '\000');
  Memory.map_page mem 11 (Bytes.make Layout.page_size '\000');
  let addr = Int64.of_int ((11 * Layout.page_size) - 3) in
  Memory.write_u64 mem addr 0x1122334455667788L;
  check Alcotest.bool "cross-page u64" true
    (Int64.equal (Memory.read_u64 mem addr) 0x1122334455667788L);
  let s = "cross-page-string" in
  Memory.write_bytes mem addr s;
  check Alcotest.string "cross-page bytes" s (Memory.read_bytes mem addr (String.length s))

let test_memory_segfault () =
  let mem = Memory.create () in
  check Alcotest.bool "segfault" true
    (match Memory.read_u64 mem 0x12345L with
     | exception Memory.Segfault _ -> true
     | _ -> false)

let test_memory_fault_handler () =
  let mem = Memory.create () in
  Memory.set_fault_handler mem
    (Some (fun pn -> if pn < 100 then Some (Bytes.make Layout.page_size 'x') else None));
  check Alcotest.int "served" (Char.code 'x') (Memory.read_u8 mem 4096L);
  check Alcotest.int "fault count" 1 (Memory.fault_count mem);
  check Alcotest.bool "beyond handler" true
    (match Memory.read_u8 mem (Int64.of_int (200 * Layout.page_size)) with
     | exception Memory.Segfault _ -> true
     | _ -> false)

let test_memory_copy_independent () =
  let mem = Memory.create () in
  Memory.map_page mem 5 (Bytes.make Layout.page_size '\000');
  Memory.write_u64 mem (Int64.of_int (5 * Layout.page_size)) 7L;
  let mem2 = Memory.copy mem in
  Memory.write_u64 mem2 (Int64.of_int (5 * Layout.page_size)) 9L;
  check Alcotest.bool "original unchanged" true
    (Int64.equal (Memory.read_u64 mem (Int64.of_int (5 * Layout.page_size))) 7L)

(* ----- processes ----- *)

let compile_simple body =
  let m = create "t" in
  Cstd.add m;
  func m "main" [] body;
  Link.compile ~app:"t" (finish m)

let test_deterministic_execution () =
  let c = Registry_helpers.compute () in
  let run () =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run_to_completion p ~fuel:50_000_000);
    (p.Process.total_instrs, Process.stdout_contents p)
  in
  check Alcotest.bool "two runs identical" true (run () = run ())

let test_division_by_zero_crashes () =
  let c =
    compile_simple (fun b ->
        decl b "zero" (i 0);
        ret b (div_ (i 5) (v "zero")))
  in
  let p = Process.load c.Link.cp_x86 in
  (match Process.run_to_completion p ~fuel:1_000_000 with
   | Process.Crashed cr ->
     check Alcotest.bool "reason mentions division" true
       (String.length cr.cr_reason > 0 && p.Process.crash <> None)
   | _ -> Alcotest.fail "expected crash")

let test_wild_pointer_crashes () =
  let c =
    compile_simple (fun b ->
        declp b "p" (i 0x31337);
        ret b (deref (v "p")))
  in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Crashed _ -> ()
  | _ -> Alcotest.fail "expected segfault"

let test_sbrk_growth () =
  let c =
    compile_simple (fun b ->
        declp b "a" (call "sbrk" [ i 100_000 ]);
        store_idx b (v "a") (i 12_000) (i 42);
        ret b (idx (v "a") (i 12_000)))
  in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Exited_run 42L -> ()
      | _ -> Alcotest.fail "sbrk region not usable")
    Arch.all

let test_stack_demand_growth () =
  (* deep recursion touches far more stack than the initially mapped top *)
  let m = create "deep" in
  Cstd.add m;
  func m "down" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      decl_arr b "pad" 16;
      store_idx b (addr "pad") (i 0) (v "n");
      if_ b (le (v "n") (i 0)) (fun b -> ret b (idx (addr "pad") (i 0)));
      ret b (call "down" [ sub (v "n") (i 1) ]));
  func m "main" [] (fun b -> ret b (call "down" [ i 400 ]));
  let c = Link.compile ~app:"deep" (finish m) in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:10_000_000 with
      | Process.Exited_run 0L ->
        check Alcotest.bool "stack pages faulted in" true
          (Memory.fault_count p.Process.mem > 0)
      | _ -> Alcotest.fail "deep recursion failed")
    Arch.all

let test_spawn_limit () =
  let m = create "spawner" in
  Cstd.add m;
  func m "worker" [ ("x", Dapper_ir.Ir.I64) ] (fun b ->
      while_ b (i 1) (fun b -> do_ b (call "yield" [])));
  func m "main" [] (fun b ->
      decl b "fails" (i 0);
      for_ b "k" (i 0) (i 100) (fun b ->
          if_ b (lt (call "spawn" [ fnptr "worker"; v "k" ]) (i 0)) (fun b ->
              set b "fails" (add (v "fails") (i 1))));
      do_ b (call "exit" [ v "fails" ]);
      ret b (i 0));
  let c = Link.compile ~app:"spawner" (finish m) in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:10_000_000 with
  | Process.Exited_run fails ->
    (* 100 spawn attempts; tids 1.. up to Layout.max_threads-1 succeed *)
    check Alcotest.int "spawns rejected past the limit"
      (100 - (Layout.max_threads - 1))
      (Int64.to_int fails)
  | _ -> Alcotest.fail "spawner did not finish"

let test_join_unknown_tid () =
  let c =
    compile_simple (fun b -> ret b (call "join" [ i 59 ]))
  in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Exited_run v -> check Alcotest.bool "join(-1) on unknown" true (v = -1L)
  | _ -> Alcotest.fail "join on unknown tid should not hang"

let test_deadlock_detection () =
  let m = create "dl" in
  Cstd.add m;
  global m "mtx" 8;
  func m "main" [] (fun b ->
      do_ b (call "lock" [ addr "mtx" ]);
      do_ b (call "lock" [ addr "mtx" ]);
      ret b (i 0));
  let c = Link.compile ~app:"dl" (finish m) in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Idle -> ()
  | _ -> Alcotest.fail "self-deadlock should report Idle"

let test_clock_monotonic () =
  let c =
    compile_simple (fun b ->
        decl b "t1" (call "clock" []);
        decl b "x" (i 0);
        for_ b "k" (i 0) (i 100) (fun b -> set b "x" (add (v "x") (v "k")));
        decl b "t2" (call "clock" []);
        ret b (band (lt (v "t1") (v "t2")) (gt (v "x") (i 0))))
  in
  let p = Process.load c.Link.cp_arm in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Exited_run 1L -> ()
  | _ -> Alcotest.fail "clock not monotonic"

(* A guest [write] with a bad length is contained: a negative length,
   or a range that is not mapped, crashes the guest and never the host,
   and nothing of the requested size is allocated first. *)
let test_write_bad_length () =
  let reason arch len_or_addr =
    let m = create "w" in
    Cstd.add m;
    global m "g" 8;
    func m "main" [] (fun b ->
        do_ b (call "write" len_or_addr);
        ret b (i 0));
    let c = Link.compile ~app:"w" (finish m) in
    let p = Process.load (Link.binary_for c arch) in
    match Process.run_to_completion p ~fuel:1_000_000 with
    | Process.Crashed cr -> cr.cr_reason
    | _ -> Alcotest.failf "%s: bad write was not a contained crash" (Arch.name arch)
  in
  let mentions what s =
    let n = String.length what in
    let rec go k = k + n <= String.length s && (String.sub s k n = what || go (k + 1)) in
    go 0
  in
  List.iter
    (fun arch ->
      let name = Arch.name arch in
      check Alcotest.bool (name ^ ": negative length") true
        (mentions "negative length" (reason arch [ i 1; addr "g"; i (-1) ]));
      check Alcotest.bool (name ^ ": unmapped range") true
        (mentions "segfault" (reason arch [ i 1; i 16; i 8 ]));
      check Alcotest.bool (name ^ ": huge length runs off the mapping") true
        (mentions "segfault" (reason arch [ i 1; addr "g"; i (1 lsl 40) ])))
    [ Arch.X86_64; Arch.Aarch64 ]

(* Golden digests of [observe] / [observe_pages] for nginx after 300k
   instructions on each ISA: they pin the fold order, the page-number
   prefix and the flag-word masking, so the digests cannot drift. *)
let test_observe_golden () =
  let c = Registry_helpers.compute () in
  List.iter
    (fun (arch, data, heap, tls, fold) ->
      let p = Process.load (Link.binary_for c arch) in
      (match Process.run p ~max_instrs:300_000 with
       | Process.Progress -> ()
       | _ -> Alcotest.fail "nginx finished early");
      let sn = Process.observe p in
      let pages = Process.observe_pages p in
      let kind = function
        | Process.Vma_data -> 1
        | Process.Vma_heap -> 2
        | Process.Vma_tls -> 3
        | _ -> 0
      in
      let name = Arch.name arch in
      check Alcotest.int64 (name ^ " data") data sn.Process.sn_data;
      check Alcotest.int64 (name ^ " heap") heap sn.Process.sn_heap;
      check Alcotest.int64 (name ^ " tls") tls sn.Process.sn_tls;
      check Alcotest.int (name ^ " pages") 3 (List.length pages);
      check Alcotest.int64 (name ^ " page digests") fold
        (List.fold_left
           (fun h (k, pn, d) ->
             Int64.add (Int64.mul h 1_000_003L)
               (Int64.logxor d (Int64.of_int ((pn * 4) + kind k))))
           0L pages))
    [ ( Arch.X86_64, 0x1cb833a71168dfc4L, 0xf77bcce00e673e5cL, 0xd07bc2537d4175c8L,
        0xf18fd8ae6347ddecL );
      ( Arch.Aarch64, 0xad2b9a110147a620L, 0x646cb4e005533637L, 0xd07bc2537d4175c8L,
        0xf8b54dd6019c18ffL ) ]

let suites =
  [ ( "machine-memory",
      [ Alcotest.test_case "cross-page access" `Quick test_memory_cross_page;
        Alcotest.test_case "segfault" `Quick test_memory_segfault;
        Alcotest.test_case "fault handler" `Quick test_memory_fault_handler;
        Alcotest.test_case "copy independence" `Quick test_memory_copy_independent ] );
    ( "machine-process",
      [ Alcotest.test_case "deterministic execution" `Quick test_deterministic_execution;
        Alcotest.test_case "division by zero" `Quick test_division_by_zero_crashes;
        Alcotest.test_case "wild pointer" `Quick test_wild_pointer_crashes;
        Alcotest.test_case "sbrk growth" `Quick test_sbrk_growth;
        Alcotest.test_case "stack demand growth" `Quick test_stack_demand_growth;
        Alcotest.test_case "spawn limit" `Quick test_spawn_limit;
        Alcotest.test_case "join unknown tid" `Quick test_join_unknown_tid;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "write with a bad length is contained" `Quick
          test_write_bad_length;
        Alcotest.test_case "observe digests pinned" `Quick test_observe_golden ] ) ]
