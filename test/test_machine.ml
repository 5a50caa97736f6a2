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

(* The page TLB is invisible: random operation sequences give the same
   values, segfaults, dirty sets and fault counts as a model without one
   (a plain page table with the same fault handler). Pages 7..16 are in
   play: 12..15 are served by the fault handler, 7 and 16 never are, and
   offsets lean to page ends so u64 accesses straddle. *)
type mop =
  | Map of int * char
  | Unmap of int
  | Rd8 of int64
  | Rd64 of int64
  | Wr8 of int64 * int
  | Wr64 of int64 * int64
  | Track of bool
  | Clear
  | Copy

let mop_to_string = function
  | Map (pn, c) -> Printf.sprintf "map %d %C" pn c
  | Unmap pn -> Printf.sprintf "unmap %d" pn
  | Rd8 a -> Printf.sprintf "rd8 0x%Lx" a
  | Rd64 a -> Printf.sprintf "rd64 0x%Lx" a
  | Wr8 (a, v) -> Printf.sprintf "wr8 0x%Lx %d" a v
  | Wr64 (a, v) -> Printf.sprintf "wr64 0x%Lx %Ld" a v
  | Track on -> Printf.sprintf "track %b" on
  | Clear -> "clear"
  | Copy -> "copy"

let serve pn =
  if pn >= 12 && pn < 16 then Some (Bytes.make Layout.page_size (Char.chr pn)) else None

type model = {
  m_pages : (int, bytes) Hashtbl.t;
  mutable m_faults : int;
  mutable m_dirty : (int, unit) Hashtbl.t option;
}

let m_page m addr =
  let pn = Layout.page_of_addr addr in
  match Hashtbl.find_opt m.m_pages pn with
  | Some p -> p
  | None ->
    (match serve pn with
     | Some p ->
       m.m_faults <- m.m_faults + 1;
       Hashtbl.replace m.m_pages pn p;
       p
     | None -> raise (Memory.Segfault addr))

let m_mark m addr =
  Option.iter (fun d -> Hashtbl.replace d (Layout.page_of_addr addr) ()) m.m_dirty

let m_read8 m addr = Char.code (Bytes.get (m_page m addr) (Layout.page_offset addr))

let m_write8 m addr v =
  let p = m_page m addr in
  m_mark m addr;
  Bytes.set p (Layout.page_offset addr) (Char.chr (v land 0xFF))

(* straddling u64s go byte by byte: reads from the top byte down,
   writes from the bottom byte up (so a write can fault part-way) *)
let m_read64 m addr =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.get_int64_le (m_page m addr) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (m_read8 m (Int64.add addr (Int64.of_int i))))
    done;
    !v
  end

let m_write64 m addr v =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then begin
    let p = m_page m addr in
    m_mark m addr;
    Bytes.set_int64_le p off v
  end
  else
    for i = 0 to 7 do
      m_write8 m (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let gen_mop =
  let open QCheck.Gen in
  let pn = int_range 7 16 in
  let addr =
    map2
      (fun pn off -> Int64.of_int ((pn * Layout.page_size) + off))
      pn
      (oneof [ int_range 0 (Layout.page_size - 1);
               int_range (Layout.page_size - 8) (Layout.page_size - 1) ])
  in
  frequency
    [ (3, map2 (fun pn c -> Map (pn, c)) pn printable);
      (1, map (fun pn -> Unmap pn) pn);
      (4, map (fun a -> Rd8 a) addr);
      (6, map (fun a -> Rd64 a) addr);
      (4, map2 (fun a v -> Wr8 (a, v)) addr (int_range 0 255));
      (6, map2 (fun a v -> Wr64 (a, v)) addr (map Int64.of_int int));
      (1, map (fun on -> Track on) bool);
      (1, return Clear);
      (1, return Copy) ]

let qcheck_tlb_model =
  QCheck.Test.make ~count:500 ~name:"TLB agrees with a no-TLB model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map mop_to_string ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_mop))
    (fun ops ->
      let mem = ref (Memory.create ()) in
      Memory.set_fault_handler !mem (Some serve);
      let m = ref { m_pages = Hashtbl.create 16; m_faults = 0; m_dirty = None } in
      let outcome f = match f () with v -> Ok v | exception Memory.Segfault a -> Error a in
      List.iter
        (fun op ->
          let agree what got want =
            if got <> want then
              QCheck.Test.fail_reportf "%s: %s disagrees with the model" (mop_to_string op) what
          in
          let value real model = agree "value" (outcome real) (outcome model) in
          (match op with
           | Map (pn, c) ->
             Memory.map_page !mem pn (Bytes.make Layout.page_size c);
             m_mark !m (Layout.addr_of_page pn);
             Hashtbl.replace !m.m_pages pn (Bytes.make Layout.page_size c)
           | Unmap pn ->
             Memory.unmap_page !mem pn;
             Hashtbl.remove !m.m_pages pn
           | Rd8 a ->
             value (fun () -> Int64.of_int (Memory.read_u8 !mem a))
               (fun () -> Int64.of_int (m_read8 !m a))
           | Rd64 a -> value (fun () -> Memory.read_u64 !mem a) (fun () -> m_read64 !m a)
           | Wr8 (a, v) ->
             value (fun () -> Memory.write_u8 !mem a v; 0L) (fun () -> m_write8 !m a v; 0L)
           | Wr64 (a, v) ->
             value (fun () -> Memory.write_u64 !mem a v; 0L) (fun () -> m_write64 !m a v; 0L)
           | Track on ->
             Memory.track_dirty !mem on;
             !m.m_dirty <- (if on then Some (Hashtbl.create 8) else None)
           | Clear ->
             Memory.clear_dirty !mem;
             Option.iter Hashtbl.reset !m.m_dirty
           | Copy ->
             (* continue on the copy, the handler re-installed *)
             mem := Memory.copy !mem;
             Memory.set_fault_handler !mem (Some serve);
             m :=
               { m_pages = Hashtbl.copy !m.m_pages; m_faults = 0; m_dirty = None };
             Hashtbl.filter_map_inplace (fun _ p -> Some (Bytes.copy p)) !m.m_pages);
          let model_dirty =
            match !m.m_dirty with
            | None -> []
            | Some d -> List.sort compare (Hashtbl.fold (fun pn () l -> pn :: l) d [])
          in
          agree "dirty pages" (Memory.dirty_pages !mem) model_dirty;
          agree "fault count" (Memory.fault_count !mem) !m.m_faults;
          agree "mapped pages" (Memory.mapped_pages !mem)
            (List.sort compare (Hashtbl.fold (fun pn _ l -> pn :: l) !m.m_pages [])))
        ops;
      true)

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

(* A guest [sbrk] whose break would cross the lowest thread stack is
   contained: the guest crashes with an [sbrk:] reason and not one page
   is mapped for it. Code pages are faulted in up front and the guest is
   stepped one instruction at a time, so the mapped set is pinned just
   before the syscall. *)
let test_sbrk_past_stacks () =
  let limit = Layout.stack_limit_of_thread (Layout.max_threads - 1) in
  let room = Int64.to_int (Int64.sub limit Layout.heap_base) in
  List.iter
    (fun arch ->
      List.iter
        (fun delta ->
          let what = Printf.sprintf "%s: sbrk(%d)" (Arch.name arch) delta in
          let c = compile_simple (fun b -> ret b (call "sbrk" [ i delta ])) in
          let bin = Link.binary_for c arch in
          let p = Process.load bin in
          let text = Option.get (Binary.find_section bin ".text") in
          ignore
            (Memory.read_bytes p.Process.mem text.Binary.sec_addr
               (String.length text.Binary.sec_data));
          let rec step n =
            if n = 0 then Alcotest.failf "%s: never crashed" what;
            let before = Memory.mapped_pages p.Process.mem in
            match Process.run p ~max_instrs:1 with
            | Process.Progress -> step (n - 1)
            | Process.Crashed cr ->
              check Alcotest.bool (what ^ ": reason starts with sbrk:") true
                (String.starts_with ~prefix:"sbrk:" cr.cr_reason);
              check Alcotest.(list int) (what ^ ": nothing mapped") before
                (Memory.mapped_pages p.Process.mem)
            | _ -> Alcotest.failf "%s: not a contained crash" what
          in
          step 10_000)
        [ room + 1; 4_000_000_000_000 ])
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

(* ----- interpreter golden pins ----- *)

(* Per program and ISA: total instructions, each thread's instructions,
   exit code, stdout digest and demand faults after [run_to_completion].
   streamcluster is a 4-worker PARSEC app, so the round-robin
   interleaving is pinned too. *)
let test_run_golden () =
  List.iter
    (fun (app, arch, total, per_thread, code, out, faults) ->
      let c = Dapper_workloads.Registry.compiled (Dapper_workloads.Registry.find app) in
      let p = Process.load (Link.binary_for c arch) in
      let name = app ^ "/" ^ Arch.name arch in
      (match Process.run_to_completion p ~fuel:50_000_000 with
       | Process.Exited_run v -> check Alcotest.int64 (name ^ " exit") code v
       | _ -> Alcotest.failf "%s did not exit" name);
      check Alcotest.int64 (name ^ " total") total p.Process.total_instrs;
      check
        Alcotest.(list int64)
        (name ^ " per thread") per_thread
        (List.map (fun (th : Process.thread) -> th.instrs) p.Process.threads);
      check Alcotest.int64 (name ^ " stdout")
        out (Dapper_util.Bytebuf.fnv64 (Process.stdout_contents p));
      check Alcotest.int (name ^ " faults") faults (Memory.fault_count p.Process.mem))
    [ ("nginx", Arch.X86_64, 1779744L, [ 1779744L ], 0L, 0x42bcfeb58936b525L, 4);
      ("nginx", Arch.Aarch64, 1675077L, [ 1675077L ], 0L, 0x42bcfeb58936b525L, 4);
      ("dhrystone", Arch.X86_64, 3585746L, [ 3585746L ], 58L, 0x99165430a9715845L, 3);
      ("dhrystone", Arch.Aarch64, 3380722L, [ 3380722L ], 58L, 0x99165430a9715845L, 3);
      ( "streamcluster", Arch.X86_64, 605162L,
        [ 88166L; 129236L; 129308L; 129313L; 129139L ], 249L, 0x20b2ed74c1f7dbe9L, 3 );
      ( "streamcluster", Arch.Aarch64, 592138L,
        [ 89651L; 125603L; 125680L; 125687L; 125517L ], 249L, 0x20b2ed74c1f7dbe9L, 3 ) ]

(* A crash reports the faulting instruction's pc, and that instruction
   counts as retired (an undecodable one does not: it was never
   fetched). *)
let test_crash_golden () =
  List.iter
    (fun (what, globals, body, reason, per_arch) ->
      let m = create "t" in
      Cstd.add m;
      globals m;
      func m "main" [] body;
      let c = Link.compile ~app:"t" (finish m) in
      List.iter
        (fun (arch, pc, instrs) ->
          let p = Process.load (Link.binary_for c arch) in
          let name = what ^ "/" ^ Arch.name arch in
          match Process.run_to_completion p ~fuel:1_000_000 with
          | Process.Crashed cr ->
            check Alcotest.int (name ^ " tid") 0 cr.cr_tid;
            check Alcotest.int64 (name ^ " pc") pc cr.cr_pc;
            check Alcotest.string (name ^ " reason") reason cr.cr_reason;
            check Alcotest.int64 (name ^ " thread instrs") instrs (Process.thread p 0).instrs;
            check Alcotest.int64 (name ^ " total") instrs p.Process.total_instrs
          | _ -> Alcotest.failf "%s: expected a crash" name)
        per_arch)
    [ ( "division by zero", ignore,
        (fun b -> decl b "zero" (i 0); ret b (div_ (i 5) (v "zero"))),
        "division by zero",
        [ (Arch.X86_64, 0x402b6aL, 15L); (Arch.Aarch64, 0x402b88L, 14L) ] );
      ( "wild pointer", ignore,
        (fun b -> declp b "p" (i 0x31337); ret b (deref (v "p"))),
        "segfault at 0x31337",
        [ (Arch.X86_64, 0x402b60L, 14L); (Arch.Aarch64, 0x402b80L, 13L) ] );
      ( "undecodable",
        (fun m -> global m ~init:(String.make 16 '\xff') "junk" 16),
        (fun b -> ret b (call_ptr (addr "junk") [])),
        "undecodable instruction at 0x600020",
        [ (Arch.X86_64, 0x600020L, 9L); (Arch.Aarch64, 0x600020L, 8L) ] ) ]

(* [clock] returns the exact instruction count at the syscall, although
   both calls sit mid-slice. *)
let test_clock_golden () =
  let c =
    compile_simple (fun b ->
        decl b "t1" (call "clock" []);
        decl b "x" (i 0);
        for_ b "k" (i 0) (i 100) (fun b -> set b "x" (add (v "x") (v "k")));
        decl b "t2" (call "clock" []);
        ret b (add (mul (v "t1") (i 1_000_000)) (v "t2")))
  in
  List.iter
    (fun (arch, t1_t2) ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Exited_run v -> check Alcotest.int64 (Arch.name arch ^ " clock") t1_t2 v
      | _ -> Alcotest.fail "clock program did not exit")
    [ (Arch.X86_64, 13_002_633L); (Arch.Aarch64, 10_002_530L) ]

(* Stores into .text are coherent with the decoded-instruction cache:
   overwrite an instruction that already ran with a trap, and the next
   execution traps there — whether the store is a ptrace poke or the
   guest's own. *)
let test_code_coherence () =
  let trap_word arch =
    let t = Encoding.trap_bytes arch in
    (Bytes.get_int64_le (Bytes.of_string (t ^ String.make (8 - String.length t) '\000')) 0,
     Int64.of_int (String.length t))
  in
  let m = create "spin" in
  Cstd.add m;
  func m "main" [] (fun b ->
      decl b "x" (i 0);
      for_ b "k" (i 0) (i 1_000_000) (fun b -> set b "x" (add (v "x") (v "k")));
      ret b (i 0));
  let spin = Link.compile ~app:"spin" (finish m) in
  List.iter
    (fun arch ->
      let name = Arch.name arch in
      let word, len = trap_word arch in
      (* poke an already-executed pc of a running loop *)
      let p = Process.load (Link.binary_for spin arch) in
      ignore (Process.run p ~max_instrs:10_000);
      let th = Process.thread p 0 in
      let target = th.pc in
      let steps = ref 0 in
      ignore (Process.run p ~max_instrs:1);
      while (not (Int64.equal th.pc target)) && !steps < 10_000 do
        ignore (Process.run p ~max_instrs:1);
        incr steps
      done;
      check Alcotest.int64 (name ^ " loop came back") target th.pc;
      Process.poke_data p target word;
      (match Process.run p ~max_instrs:1_000 with
       | Process.Idle -> ()
       | _ -> Alcotest.failf "%s: poked trap did not stop the loop" name);
      check Alcotest.bool (name ^ " trapped") true (th.status = Process.Trapped);
      check Alcotest.int64 (name ^ " at the poked pc") (Int64.add target len) th.pc;
      (* the guest overwrites a function it already called *)
      let m = create "smc" in
      Cstd.add m;
      func m "f" [] (fun b -> ret b (i 7));
      func m "main" [] (fun b ->
          do_ b (call "f" []);
          store b (fnptr "f") (i (Int64.to_int word));
          do_ b (call "f" []);
          ret b (i 0));
      let c = Link.compile ~app:"smc" (finish m) in
      let bin = Link.binary_for c arch in
      let f =
        match Binary.find_symbol bin "f" with
        | Some s -> s.sym_addr
        | None -> Alcotest.fail "no symbol f"
      in
      let p = Process.load bin in
      (match Process.run_to_completion p ~fuel:1_000_000 with
       | Process.Idle -> ()
       | _ -> Alcotest.failf "%s: self-modified f did not trap" name);
      check Alcotest.int64 (name ^ " guest store traps in f") (Int64.add f len)
        (Process.thread p 0).pc)
    Arch.all

let suites =
  [ ( "machine-memory",
      [ Alcotest.test_case "cross-page access" `Quick test_memory_cross_page;
        Alcotest.test_case "segfault" `Quick test_memory_segfault;
        Alcotest.test_case "fault handler" `Quick test_memory_fault_handler;
        Alcotest.test_case "copy independence" `Quick test_memory_copy_independent;
        QCheck_alcotest.to_alcotest qcheck_tlb_model ] );
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
        Alcotest.test_case "sbrk past the stacks is contained" `Quick
          test_sbrk_past_stacks;
        Alcotest.test_case "observe digests pinned" `Quick test_observe_golden;
        Alcotest.test_case "run to completion pinned" `Quick test_run_golden;
        Alcotest.test_case "crash pc and counts pinned" `Quick test_crash_golden;
        Alcotest.test_case "clock pinned mid-slice" `Quick test_clock_golden;
        Alcotest.test_case "stores into .text are coherent" `Quick test_code_coherence ] ) ]
