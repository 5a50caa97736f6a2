open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_machine

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Restore_failed s) fmt

let restore_exn ?page_source (is : Images.image_set) (binary : Binary.t) =
  if not (Arch.equal is.is_files.fi_arch binary.Binary.bin_arch) then
    fail "architecture mismatch: image is %s, binary is %s"
      (Arch.name is.is_files.fi_arch)
      (Arch.name binary.Binary.bin_arch);
  if is.is_files.fi_app <> binary.Binary.bin_app then
    fail "binary mismatch: image is %s, binary is %s" is.is_files.fi_app
      binary.Binary.bin_app;
  List.iter
    (fun (tc : Images.thread_core) ->
      if not (Arch.equal tc.tc_arch binary.Binary.bin_arch) then
        fail "thread %d register set is %s, binary is %s" tc.tc_tid
          (Arch.name tc.tc_arch)
          (Arch.name binary.Binary.bin_arch))
    is.is_cores;
  let mem = Memory.create () in
  (* Map dumped pages; remember which pages are lazy. *)
  let lazy_pages = Hashtbl.create 64 in
  let cursor = ref 0 in
  List.iter
    (fun (e : Images.pagemap_entry) ->
      for k = 0 to e.pm_npages - 1 do
        let pn = Layout.page_of_addr e.pm_vaddr + k in
        if e.pm_in_dump then begin
          let data = Bytes.create Layout.page_size in
          Bytes.blit_string is.is_pages !cursor data 0 Layout.page_size;
          cursor := !cursor + Layout.page_size;
          Memory.map_page mem pn data
        end
        else Hashtbl.replace lazy_pages pn ()
      done)
    is.is_pagemap;
  let threads =
    List.map
      (fun (tc : Images.thread_core) ->
        { Process.tid = tc.tc_tid; regs = Process.regs_of_array tc.tc_regs; pc = tc.tc_pc;
          tls = tc.tc_tls; status = Process.Runnable; instrs = 0L })
      is.is_cores
  in
  let p = Process.reconstruct binary mem ~threads ~brk:is.is_mm.mm_brk in
  (* Chain the lazy page source in front of binary code paging. *)
  let text = Binary.find_section binary ".text" in
  let handler pn =
    if Hashtbl.mem lazy_pages pn then
      match page_source with
      | Some src ->
        (match src pn with
         | Some data ->
           Hashtbl.remove lazy_pages pn;
           Some data
         | None -> None)
      | None -> None
    else begin
      let addr = Layout.addr_of_page pn in
      if Int64.compare addr (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
         && Int64.compare addr Layout.stack_top < 0
      then Some (Bytes.make Layout.page_size '\000')
      else if Int64.compare addr Layout.code_base >= 0
         && Int64.compare addr Layout.data_base < 0
      then begin
        let page = Bytes.make Layout.page_size '\000' in
        (match text with
         | Some s ->
           let off = Int64.to_int (Int64.sub addr s.sec_addr) in
           let len = String.length s.sec_data in
           if off >= 0 && off < len then
             Bytes.blit_string s.sec_data off page 0 (min Layout.page_size (len - off))
         | None -> ());
        Some page
      end
      else None
    end
  in
  Memory.set_fault_handler mem (Some handler);
  (* Drop the transformation-request flag so checkers do not re-trap. *)
  Memory.write_u64 mem binary.Binary.bin_anchors.a_flag 0L;
  p

let restore ?page_source is binary =
  Dapper_error.protect (fun () -> restore_exn ?page_source is binary)
