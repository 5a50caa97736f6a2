open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_criu

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Recode_failed s) fmt

type stats = {
  st_threads : int;
  st_frames : int;
  st_values : int;
  st_ptrs_translated : int;
  st_code_pages : int;
  st_stack_bytes : int;
  st_plan_hits : int;
  st_plan_misses : int;
  st_index_lookups : int;
  st_interval_lookups : int;
}

let work_items s =
  s.st_frames + s.st_values + s.st_ptrs_translated + (s.st_code_pages * 8)
  + (s.st_stack_bytes / 256)

(* ----- mutable page store used while rebuilding the image ----- *)

type store = {
  pages : (int, Bytes.t) Hashtbl.t;            (* dumped pages *)
  mutable lazies : Images.pagemap_entry list;  (* entries left on the source node *)
}

let store_of_image (is : Images.image_set) =
  let pages = Hashtbl.create 256 in
  let lazies = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun (e : Images.pagemap_entry) ->
      if e.pm_in_dump then
        for k = 0 to e.pm_npages - 1 do
          let pn = Layout.page_of_addr e.pm_vaddr + k in
          let b = Bytes.create Layout.page_size in
          Bytes.blit_string is.is_pages !cursor b 0 Layout.page_size;
          cursor := !cursor + Layout.page_size;
          Hashtbl.replace pages pn b
        done
      else lazies := e :: !lazies)
    is.is_pagemap;
  { pages; lazies = List.rev !lazies }

let store_page st pn =
  match Hashtbl.find_opt st.pages pn with
  | Some b -> b
  | None -> fail "rewriter touched page %d which is not in the dump" pn

let store_write_u64 st addr v =
  let pn = Layout.page_of_addr addr in
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.set_int64_le (store_page st pn) off v
  else
    for k = 0 to 7 do
      let a = Int64.add addr (Int64.of_int k) in
      Bytes.set
        (store_page st (Layout.page_of_addr a))
        (Layout.page_offset a)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
    done

let store_write_bytes st addr s =
  String.iteri
    (fun k c ->
      let a = Int64.add addr (Int64.of_int k) in
      Bytes.set (store_page st (Layout.page_of_addr a)) (Layout.page_offset a) c)
    s

let is_code_page pn =
  let a = Layout.addr_of_page pn in
  Int64.compare a Layout.code_base >= 0 && Int64.compare a Layout.data_base < 0

(* Emit a sorted pagemap + pages blob from the store. *)
let store_to_image st =
  let dumped =
    Hashtbl.fold (fun pn _ acc -> pn :: acc) st.pages [] |> List.sort Int.compare
  in
  let entries_dumped =
    let rec go acc = function
      | [] -> List.rev acc
      | pn :: rest ->
        (match acc with
         | { Images.pm_vaddr; pm_npages; pm_in_dump = true } :: acc_rest
           when Layout.page_of_addr pm_vaddr + pm_npages = pn ->
           go ({ Images.pm_vaddr; pm_npages = pm_npages + 1; pm_in_dump = true } :: acc_rest)
             rest
         | _ ->
           go
             ({ Images.pm_vaddr = Layout.addr_of_page pn; pm_npages = 1; pm_in_dump = true }
              :: acc)
             rest)
    in
    go [] dumped
  in
  let entries =
    List.sort
      (fun (a : Images.pagemap_entry) b -> Int64.compare a.pm_vaddr b.pm_vaddr)
      (entries_dumped @ st.lazies)
  in
  let blob = Buffer.create (List.length dumped * Layout.page_size) in
  List.iter
    (fun (e : Images.pagemap_entry) ->
      if e.pm_in_dump then
        for k = 0 to e.pm_npages - 1 do
          Buffer.add_bytes blob (Hashtbl.find st.pages (Layout.page_of_addr e.pm_vaddr + k))
        done)
    entries;
  (entries, Buffer.contents blob)

(* ----- destination frame placement ----- *)

type dst_frame = {
  df_src : Unwind.frame;
  df_fm : Stackmap.func_map;
  df_ep : Stackmap.eqpoint;
  df_fp : int64;
}

(* Initial stack pointer a fresh thread starts with (before any implicit
   return-address push), matching Process.setup_stack. *)
let initial_sp tid = Int64.sub (Layout.stack_base_of_thread tid) 64L

let place_frames ix_dst tid (ts : Unwind.thread_stack) =
  let frames = List.rev ts.Unwind.ts_frames in
  (* outermost first *)
  let rec go sp acc = function
    | [] -> List.rev acc
    | (fr : Unwind.frame) :: rest ->
      let fm =
        match Stackmap_index.find_func ix_dst fr.fr_func.fm_name with
        | Some fm -> fm
        | None -> fail "function %s missing from destination stack maps" fr.fr_func.fm_name
      in
      let ep =
        match Stackmap_index.eqpoint_by_id ix_dst fm.fm_name fr.fr_ep.ep_id with
        | Some ep -> ep
        | None ->
          fail "equivalence point %d missing from %s on destination" fr.fr_ep.ep_id
            fm.fm_name
      in
      let fp = Int64.sub sp 16L in
      let sp' = Int64.sub fp (Int64.of_int fm.fm_frame_size) in
      go sp' ({ df_src = fr; df_fm = fm; df_ep = ep; df_fp = fp } :: acc) rest
  in
  go (initial_sp tid) [] frames

(* ----- the rewrite ----- *)

let rewrite_exn (image : Images.image_set) ~(src : Binary.t) ~(dst : Binary.t) =
  if not (Arch.equal image.is_files.fi_arch src.bin_arch) then
    fail "image architecture %s does not match source binary %s"
      (Arch.name image.is_files.fi_arch) (Arch.name src.bin_arch);
  if image.is_files.fi_app <> src.bin_app || src.bin_app <> dst.bin_app then
    fail "application mismatch between image and binaries";
  let src_maps = src.bin_stackmaps and dst_maps = dst.bin_stackmaps in
  let dst_arch = dst.bin_arch in
  (* per-run counts are differences of the monotone global counters *)
  let index_lookups0 = Stackmap_index.lookup_count () in
  let plan_hits0 = Plan_cache.hits () and plan_misses0 = Plan_cache.misses () in
  let ix_src = Stackmap_index.get src_maps in
  let ix_dst = Stackmap_index.get dst_maps in
  (* ok_exn re-raises the carrier: an unwind failure surfaces from the
     public [rewrite] as [Unwind_failed], not disguised as a recode. *)
  let stacks = Dapper_error.ok_exn (Unwind.unwind_all image src_maps ~anchors:src.bin_anchors) in
  let placed =
    List.map (fun ts -> (ts, place_frames ix_dst ts.Unwind.ts_tid ts)) stacks
  in
  (* Global source-stack interval map for pointer translation. Which live
     values contribute an interval is a frame-placement decision memoized
     in the plan cache; the concrete offsets come from the current
     binaries' stack-map indexes. *)
  let frame_off ix fn ep_id key =
    match Stackmap_index.live_value ix fn ep_id key with
    | Some { Stackmap.lv_loc = Stackmap.Frame off; _ } -> off
    | Some { Stackmap.lv_loc = Stackmap.Reg _; _ } | None ->
      fail "%s: plan expects frame-resident live value at ep %d" fn ep_id
  in
  let intervals = ref [] in
  List.iter
    (fun ((_ : Unwind.thread_stack), dframes) ->
      List.iter
        (fun df ->
          let fn = df.df_fm.Stackmap.fm_name in
          let ep_id = df.df_ep.Stackmap.ep_id in
          let plan =
            Plan_cache.lookup ~app:src.bin_app ~src_arch:src.bin_arch ~dst_arch
              ~fn ~ep_id ~src_ep:df.df_src.fr_ep ~dst_ep:df.df_ep
          in
          List.iter
            (fun (key, size) ->
              let src_off = frame_off ix_src fn ep_id key in
              let dst_off = frame_off ix_dst fn ep_id key in
              let src_lo = Int64.add df.df_src.fr_fp (Int64.of_int src_off) in
              let dst_lo = Int64.add df.df_fp (Int64.of_int dst_off) in
              intervals :=
                (src_lo, Int64.add src_lo (Int64.of_int size), dst_lo) :: !intervals)
            plan.Plan_cache.pl_intervals)
        dframes)
    placed;
  let intervals = !intervals in
  let imap = Dapper_util.Interval_map.of_list intervals in
  let imap_ok = Dapper_util.Interval_map.disjoint imap in
  let ptrs_translated = ref 0 in
  let interval_lookups = ref 0 in
  let translate v =
    incr interval_lookups;
    if imap_ok then
      match Dapper_util.Interval_map.find_interval imap v with
      | Some (lo, _, dst_lo) ->
        incr ptrs_translated;
        Int64.add dst_lo (Int64.sub v lo)
      | None -> v
    else
      (* Overlapping intervals: fall back to the first-match linear scan
         so translation picks the same interval the unindexed rewriter
         would have. *)
      match
        List.find_opt
          (fun (lo, hi, _) -> Int64.compare v lo >= 0 && Int64.compare v hi < 0)
          intervals
      with
      | Some (lo, _, dst_lo) ->
        incr ptrs_translated;
        Int64.add dst_lo (Int64.sub v lo)
      | None -> v
  in
  let in_stack_region v =
    Int64.compare v (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
    && Int64.compare v Layout.stack_top < 0
  in
  (* Build the new page store. *)
  let st = store_of_image image in
  (* Drop source execution-context code pages; the destination's are added
     below. *)
  let dropped =
    Hashtbl.fold (fun pn _ acc -> if is_code_page pn then pn :: acc else acc) st.pages []
  in
  List.iter (Hashtbl.remove st.pages) dropped;
  (* Zero the stack pages of one thread present in the dump. *)
  let stack_bytes = ref 0 in
  let zero_thread (ts : Unwind.thread_stack) =
    let tid = ts.Unwind.ts_tid in
    let first = Layout.page_of_addr (Layout.stack_limit_of_thread tid) in
    let last = Layout.page_of_addr (Int64.sub (Layout.stack_base_of_thread tid) 1L) in
    for pn = first to last do
      match Hashtbl.find_opt st.pages pn with
      | Some page ->
        Bytes.fill page 0 Layout.page_size '\000';
        stack_bytes := !stack_bytes + Layout.page_size
      | None -> ()
    done
  in
  let frames_count = ref 0 in
  let values_count = ref 0 in
  let rewrite_thread (ts : Unwind.thread_stack) (dframes : dst_frame list) =
    let tid = ts.Unwind.ts_tid in
    let ctx = Array.make 33 0L in
    let caller_fp = ref 0L in
    let ret_addr =
      ref
        (if tid = 0 then dst.bin_anchors.a_exit_stub
         else dst.bin_anchors.a_thread_exit_stub)
    in
    let n = List.length dframes in
    List.iteri
      (fun k df ->
        incr frames_count;
        let innermost = k = n - 1 in
        let fp = df.df_fp in
        (* return address per destination ABI *)
        (match dst_arch with
         | Arch.X86_64 -> store_write_u64 st (Int64.add fp 8L) !ret_addr
         | Arch.Aarch64 ->
           if df.df_fm.fm_leaf && innermost && not df.df_src.fr_at_call then
             ctx.(30) <- !ret_addr
           else store_write_u64 st (Int64.add fp 8L) !ret_addr);
        (* caller frame-pointer chain *)
        store_write_u64 st fp !caller_fp;
        caller_fp := fp;
        (* save area holds the caller's callee-saved register values *)
        List.iter
          (fun (r, off) -> store_write_u64 st (Int64.add fp (Int64.of_int off)) ctx.(r))
          df.df_fm.fm_saved;
        (* live values; hash the source frame's values once instead of an
           assoc scan per destination live value *)
        let src_values = Hashtbl.create (List.length df.df_src.fr_values) in
        List.iter
          (fun (key, bytes) ->
            if not (Hashtbl.mem src_values key) then Hashtbl.add src_values key bytes)
          df.df_src.fr_values;
        List.iter
          (fun (lv : Stackmap.live_value) ->
            incr values_count;
            let bytes =
              match Hashtbl.find_opt src_values lv.lv_key with
              | Some b -> b
              | None ->
                fail "%s: live value missing from source at ep %d" df.df_fm.fm_name
                  df.df_ep.ep_id
            in
            if String.length bytes <> lv.lv_size then
              fail "%s: live value size mismatch" df.df_fm.fm_name;
            (* Stack pointers are translated eagerly: the interval map was
               built from the completed frame placement of every thread, and
               [ctx] is reused frame to frame — a caller's promoted pointer
               must be translated before the callee's save-area write copies
               it, and before the callee reassigns the register. *)
            match lv.lv_loc with
            | Stackmap.Reg r ->
              let value = Dapper_util.Bytebuf.get_i64 bytes 0 in
              ctx.(r) <-
                (if lv.lv_ty = Stackmap.Lv_ptr && in_stack_region value then
                   translate value
                 else value)
            | Stackmap.Frame off ->
              let base = Int64.add fp (Int64.of_int off) in
              if lv.lv_ty = Stackmap.Lv_ptr then
                for e = 0 to (lv.lv_size / 8) - 1 do
                  let value = Dapper_util.Bytebuf.get_i64 bytes (e * 8) in
                  let a = Int64.add base (Int64.of_int (e * 8)) in
                  store_write_u64 st a
                    (if in_stack_region value then translate value else value)
                done
              else store_write_bytes st base bytes)
          df.df_ep.ep_live;
        ret_addr := df.df_ep.ep_resume)
      dframes;
    let inner =
      match List.rev dframes with
      | inner :: _ -> inner
      | [] -> fail "thread %d has no frames" tid
    in
    let pc =
      if inner.df_src.fr_at_call then inner.df_ep.ep_addr else inner.df_ep.ep_resume
    in
    ctx.(Arch.fp dst_arch) <- inner.df_fp;
    ctx.(Arch.sp dst_arch) <-
      Int64.sub inner.df_fp (Int64.of_int inner.df_fm.fm_frame_size);
    List.iteri
      (fun idx value -> ctx.(List.nth (Arch.arg_regs dst_arch) idx) <- value)
      ts.ts_arg_regs;
    let tls =
      Int64.add
        (Int64.sub ts.ts_tls (Int64.of_int (Arch.tls_offset src.bin_arch)))
        (Int64.of_int (Arch.tls_offset dst_arch))
    in
    { Images.tc_tid = tid; tc_arch = dst_arch; tc_regs = ctx; tc_pc = pc; tc_tls = tls }
  in
  (* Per-thread zero + rewrite. A thread's writes are confined to its own
     stack pages and its reads come from the unwound [fr_values] (captured
     before any zeroing), so interleaving zero/rewrite per thread is
     equivalent to the zero-all-then-rewrite-all order. *)
  let new_cores =
    List.map
      (fun (ts, dframes) ->
        zero_thread ts;
        rewrite_thread ts dframes)
      placed
  in
  (* Destination execution-context code pages. *)
  let code_pages = ref 0 in
  List.iter
    (fun (tc : Images.thread_core) ->
      let pn = Layout.page_of_addr tc.tc_pc in
      if not (Hashtbl.mem st.pages pn) then begin
        incr code_pages;
        let page = Bytes.make Layout.page_size '\000' in
        (match Binary.find_section dst ".text" with
         | Some s ->
           let off = Int64.to_int (Int64.sub (Layout.addr_of_page pn) s.sec_addr) in
           let len = String.length s.sec_data in
           if off >= 0 && off < len then
             Bytes.blit_string s.sec_data off page 0 (min Layout.page_size (len - off))
         | None -> fail "destination binary has no text section");
        Hashtbl.replace st.pages pn page
      end)
    new_cores;
  (* Lower the transformation flag inside the image so restored threads do
     not immediately re-trap. In lazy mode the flag's data page may not be
     in the dump; the restorer also clears the flag in memory, which pulls
     the page from the page server first. *)
  if Hashtbl.mem st.pages (Layout.page_of_addr dst.bin_anchors.a_flag) then
    store_write_u64 st dst.bin_anchors.a_flag 0L;
  let entries, blob = store_to_image st in
  (* VMA list: recompute the code VMAs, keep the rest. *)
  let vmas =
    List.filter
      (fun (vma : Images.vma) -> vma.v_kind <> Images.Vk_code)
      image.is_mm.mm_vmas
    @ List.filter_map
        (fun (e : Images.pagemap_entry) ->
          if is_code_page (Layout.page_of_addr e.pm_vaddr) then
            Some
              { Images.v_start = e.pm_vaddr; v_npages = e.pm_npages;
                v_kind = Images.Vk_code }
          else None)
        entries
  in
  let image' =
    { Images.is_cores = new_cores;
      is_mm = { image.is_mm with mm_vmas = vmas };
      is_pagemap = entries;
      is_pages = blob;
      is_files = { Images.fi_app = dst.bin_app; fi_arch = dst_arch } }
  in
  let stats =
    { st_threads = List.length new_cores;
      st_frames = !frames_count;
      st_values = !values_count;
      st_ptrs_translated = !ptrs_translated;
      st_code_pages = !code_pages;
      st_stack_bytes = !stack_bytes;
      st_plan_hits = Plan_cache.hits () - plan_hits0;
      st_plan_misses = Plan_cache.misses () - plan_misses0;
      st_index_lookups = Stackmap_index.lookup_count () - index_lookups0;
      st_interval_lookups = !interval_lookups }
  in
  (image', stats)

let rewrite image ~src ~dst = Dapper_error.protect (fun () -> rewrite_exn image ~src ~dst)
