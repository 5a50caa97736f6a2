open Dapper_util
open Dapper_binary
open Dapper_machine

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Dump_failed s) fmt

let kind_of = function
  | Process.Vma_code -> Images.Vk_code
  | Process.Vma_data -> Images.Vk_data
  | Process.Vma_tls -> Images.Vk_tls
  | Process.Vma_heap -> Images.Vk_heap
  | Process.Vma_stack t -> Images.Vk_stack t

let dump_exn ?(lazy_pages = false) (p : Process.t) =
  if not (Process.all_quiescent p) then
    fail "process has runnable threads; quiesce it first";
  let live = Process.live_threads p in
  (* Execution-context pages: where each live thread's pc points. *)
  let pc_pages =
    List.map (fun (th : Process.thread) -> Layout.page_of_addr th.pc) live
  in
  let pages = Memory.page_numbers p.Process.mem in
  let classified =
    Array.fold_right
      (fun pn acc ->
        match Process.vma_kind_of_page p pn with
        | Some k -> (pn, kind_of k) :: acc
        | None -> acc)
      pages []
  in
  (* Dump policy per page. *)
  let in_dump (pn, kind) =
    match kind with
    | Images.Vk_code -> List.mem pn pc_pages
    | Images.Vk_stack _ -> true
    | Images.Vk_data | Images.Vk_tls | Images.Vk_heap -> not lazy_pages
  in
  (* Pages that are code but not execution context are omitted entirely:
     they reload from the binary. Everything else appears in the pagemap,
     dumped or lazy. *)
  let listed =
    List.filter
      (fun (pn, kind) -> kind <> Images.Vk_code || List.mem pn pc_pages)
      classified
  in
  (* Merge consecutive pages with the same dump disposition. *)
  let entries, dumped_pages =
    let rec go acc dump_acc = function
      | [] -> (List.rev acc, List.rev dump_acc)
      | ((pn, _) as page) :: rest ->
        let d = in_dump page in
        let dump_acc = if d then pn :: dump_acc else dump_acc in
        (match acc with
         | { Images.pm_vaddr; pm_npages; pm_in_dump } :: acc_rest
           when pm_in_dump = d
                && Int64.equal
                     (Int64.add pm_vaddr (Int64.of_int (pm_npages * Layout.page_size)))
                     (Layout.addr_of_page pn) ->
           go ({ Images.pm_vaddr; pm_npages = pm_npages + 1; pm_in_dump = d } :: acc_rest)
             dump_acc rest
         | _ ->
           go
             ({ Images.pm_vaddr = Layout.addr_of_page pn; pm_npages = 1; pm_in_dump = d }
              :: acc)
             dump_acc rest)
    in
    go [] [] listed
  in
  let pages_blob = Buffer.create (List.length dumped_pages * Layout.page_size) in
  List.iter
    (fun pn ->
      match Memory.page_contents p.Process.mem pn with
      | Some data -> Buffer.add_bytes pages_blob data
      | None -> fail "page %d vanished" pn)
    dumped_pages;
  (* VMAs: contiguous same-kind runs over all mapped pages. *)
  let vmas =
    let rec go acc = function
      | [] -> List.rev acc
      | (pn, kind) :: rest ->
        (match acc with
         | { Images.v_start; v_npages; v_kind } :: acc_rest
           when v_kind = kind
                && Int64.equal
                     (Int64.add v_start (Int64.of_int (v_npages * Layout.page_size)))
                     (Layout.addr_of_page pn) ->
           go ({ Images.v_start; v_npages = v_npages + 1; v_kind = kind } :: acc_rest) rest
         | _ ->
           go ({ Images.v_start = Layout.addr_of_page pn; v_npages = 1; v_kind = kind } :: acc)
             rest)
    in
    go [] classified
  in
  let cores =
    List.map
      (fun (th : Process.thread) ->
        { Images.tc_tid = th.tid; tc_arch = p.Process.arch;
          tc_regs = Process.regs_to_array th.regs; tc_pc = th.pc; tc_tls = th.tls })
      live
  in
  { Images.is_cores = cores;
    is_mm = { Images.mm_brk = p.Process.brk; mm_vmas = vmas };
    is_pagemap = entries;
    is_pages = Buffer.contents pages_blob;
    is_files = { Images.fi_app = p.Process.binary.Dapper_binary.Binary.bin_app;
                 fi_arch = p.Process.arch } }

let dump ?lazy_pages p = Dapper_error.protect (fun () -> dump_exn ?lazy_pages p)

type stats = { pages_dumped : int; pages_lazy : int; bytes : int }

let stats_of (is : Images.image_set) =
  let dumped, lazy_ =
    List.fold_left
      (fun (d, l) (e : Images.pagemap_entry) ->
        if e.pm_in_dump then (d + e.pm_npages, l) else (d, l + e.pm_npages))
      (0, 0) is.is_pagemap
  in
  { pages_dumped = dumped; pages_lazy = lazy_; bytes = Images.total_bytes is }
