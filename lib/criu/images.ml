open Dapper_isa
open Dapper_binary
open Dapper_proto

type thread_core = {
  tc_tid : int;
  tc_arch : Arch.t;
  tc_regs : int64 array;
  tc_pc : int64;
  tc_tls : int64;
}

type vma_kind = Vk_code | Vk_data | Vk_tls | Vk_heap | Vk_stack of int

type vma = { v_start : int64; v_npages : int; v_kind : vma_kind }

type mm = { mm_brk : int64; mm_vmas : vma list }

type pagemap_entry = {
  pm_vaddr : int64;
  pm_npages : int;
  pm_in_dump : bool;
}

type files_img = { fi_app : string; fi_arch : Arch.t }

type image_set = {
  is_cores : thread_core list;
  is_mm : mm;
  is_pagemap : pagemap_entry list;
  is_pages : string;
  is_files : files_img;
}

exception Image_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Image_error s)) fmt

(* ----- protobuf schemas -----
   core.img:    1 tid, 2 arch, 3 pc, 4 tls, 5 repeated fixed64 regs
   mm.img:      1 brk, 2 repeated vma { 1 start, 2 npages, 3 kind, 4 stack tid }
   pagemap.img: 1 repeated entry { 1 vaddr, 2 npages, 3 in_dump }
   files.img:   1 app, 2 arch *)

let encode_core tc =
  Proto.encode
    ([ Proto.v_int 1 (Int64.of_int tc.tc_tid);
       Proto.v_str 2 (Arch.name tc.tc_arch);
       Proto.v_fix 3 tc.tc_pc;
       Proto.v_fix 4 tc.tc_tls ]
     @ List.map (fun r -> Proto.v_fix 5 r) (Array.to_list tc.tc_regs))

let decode_core bytes =
  let fs = Proto.decode bytes in
  let arch_name = Proto.get_str fs 2 in
  let tc_arch =
    match Arch.of_name arch_name with
    | Some a -> a
    | None -> fail "core: bad arch %s" arch_name
  in
  let regs =
    List.filter_map
      (fun (f : Proto.field) ->
        if f.tag = 5 then
          match f.payload with Proto.Fixed64 v -> Some v | _ -> None
        else None)
      fs
  in
  { tc_tid = Int64.to_int (Proto.get_int fs 1); tc_arch;
    tc_pc = Proto.get_fix fs 3; tc_tls = Proto.get_fix fs 4;
    tc_regs = Array.of_list regs }

let kind_code = function
  | Vk_code -> 0 | Vk_data -> 1 | Vk_tls -> 2 | Vk_heap -> 3 | Vk_stack _ -> 4

let encode_mm mm =
  Proto.encode
    (Proto.v_fix 1 mm.mm_brk
     :: List.map
          (fun v ->
            Proto.v_msg 2
              [ Proto.v_fix 1 v.v_start;
                Proto.v_int 2 (Int64.of_int v.v_npages);
                Proto.v_int 3 (Int64.of_int (kind_code v.v_kind));
                Proto.v_int 4
                  (Int64.of_int (match v.v_kind with Vk_stack t -> t | _ -> 0)) ])
          mm.mm_vmas)

let decode_mm bytes =
  let fs = Proto.decode bytes in
  let vmas =
    List.map
      (fun m ->
        let kind =
          match Int64.to_int (Proto.get_int m 3) with
          | 0 -> Vk_code
          | 1 -> Vk_data
          | 2 -> Vk_tls
          | 3 -> Vk_heap
          | 4 -> Vk_stack (Int64.to_int (Proto.get_int m 4))
          | k -> fail "mm: bad vma kind %d" k
        in
        { v_start = Proto.get_fix m 1; v_npages = Int64.to_int (Proto.get_int m 2);
          v_kind = kind })
      (Proto.get_all_msgs fs 2)
  in
  { mm_brk = Proto.get_fix fs 1; mm_vmas = vmas }

let encode_pagemap entries =
  Proto.encode
    (List.map
       (fun e ->
         Proto.v_msg 1
           [ Proto.v_fix 1 e.pm_vaddr;
             Proto.v_int 2 (Int64.of_int e.pm_npages);
             Proto.v_int 3 (if e.pm_in_dump then 1L else 0L) ])
       entries)

let decode_pagemap bytes =
  List.map
    (fun m ->
      { pm_vaddr = Proto.get_fix m 1; pm_npages = Int64.to_int (Proto.get_int m 2);
        pm_in_dump = Proto.get_int m 3 <> 0L })
    (Proto.get_all_msgs (Proto.decode bytes) 1)

let encode_files fi =
  Proto.encode [ Proto.v_str 1 fi.fi_app; Proto.v_str 2 (Arch.name fi.fi_arch) ]

let decode_files bytes =
  let fs = Proto.decode bytes in
  let arch_name = Proto.get_str fs 2 in
  match Arch.of_name arch_name with
  | Some a -> { fi_app = Proto.get_str fs 1; fi_arch = a }
  | None -> fail "files: bad arch %s" arch_name

let to_files is =
  List.map
    (fun tc -> (Printf.sprintf "core-%d.img" tc.tc_tid, encode_core tc))
    is.is_cores
  @ [ ("mm.img", encode_mm is.is_mm);
      ("pagemap.img", encode_pagemap is.is_pagemap);
      ("pages-1.img", is.is_pages);
      ("files.img", encode_files is.is_files) ]

let of_files files =
  (* One pass over the file list: hash every image by name (first
     occurrence wins, like [List.assoc_opt]) and collect the per-thread
     cores, instead of a linear scan per named image plus a filter_map
     re-scan. *)
  let by_name = Hashtbl.create 16 in
  let cores = ref [] in
  List.iter
    (fun (name, bytes) ->
      if not (Hashtbl.mem by_name name) then Hashtbl.add by_name name bytes;
      if String.length name > 5 && String.sub name 0 5 = "core-" then
        cores := decode_core bytes :: !cores)
    files;
  let find name =
    match Hashtbl.find_opt by_name name with
    | Some v -> v
    | None -> fail "missing image file %s" name
  in
  let cores =
    List.sort (fun a b -> Int.compare a.tc_tid b.tc_tid) (List.rev !cores)
  in
  { is_cores = cores;
    is_mm = decode_mm (find "mm.img");
    is_pagemap = decode_pagemap (find "pagemap.img");
    is_pages = find "pages-1.img";
    is_files = decode_files (find "files.img") }

let total_bytes is =
  List.fold_left (fun acc (_, bytes) -> acc + String.length bytes) 0 (to_files is)

let page_offset_linear pagemap target =
  let rec go entries off =
    match entries with
    | [] -> None
    | e :: rest ->
      let size = e.pm_npages * Layout.page_size in
      if e.pm_in_dump then begin
        let rel = Int64.sub target e.pm_vaddr in
        if Int64.compare rel 0L >= 0 && Int64.compare rel (Int64.of_int size) < 0 then
          Some (off + Int64.to_int rel)
        else go rest (off + size)
      end
      else go rest off
  in
  go pagemap 0

(* Page-offset index: the pagemap walk above runs once per [read_u64]
   during unwinding, making address resolution O(pagemap entries). Build
   an interval map (dumped vaddr range -> cumulative blob offset) once
   per pagemap and memoize it by physical identity — pagemap lists are
   immutable and shared by the functional [write_*] updates, so identity
   survives everything except an actual remap. *)
let offset_index_capacity = 8

let offset_index_cache :
    (pagemap_entry list * int Dapper_util.Interval_map.t) list ref =
  ref []

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let build_offset_index pagemap =
  let off = ref 0 in
  let triples =
    List.filter_map
      (fun e ->
        if e.pm_in_dump then begin
          let size = e.pm_npages * Layout.page_size in
          let t = (e.pm_vaddr, Int64.add e.pm_vaddr (Int64.of_int size), !off) in
          off := !off + size;
          Some t
        end
        else None)
      pagemap
  in
  Dapper_util.Interval_map.of_list triples

let offset_index pagemap =
  match List.find_opt (fun (pm, _) -> pm == pagemap) !offset_index_cache with
  | Some ((_, m) as hit) ->
    offset_index_cache :=
      hit :: List.filter (fun (pm, _) -> pm != pagemap) !offset_index_cache;
    m
  | None ->
    let m = build_offset_index pagemap in
    offset_index_cache := take offset_index_capacity ((pagemap, m) :: !offset_index_cache);
    m

let page_offset_in_dump is pn =
  let target = Layout.addr_of_page pn in
  let m = offset_index is.is_pagemap in
  if Dapper_util.Interval_map.disjoint m then
    match Dapper_util.Interval_map.find_interval m target with
    | Some (lo, _, base) -> Some (base + Int64.to_int (Int64.sub target lo))
    | None -> None
  else page_offset_linear is.is_pagemap target

(* ----- content checksum -----
   FNV-1a digest over the whole image set (what an eager transfer must
   deliver intact). The transfer layer verifies it on arrival and
   retransmits on mismatch. *)

let checksum is =
  List.fold_left
    (fun h (name, data) ->
      Dapper_util.Bytebuf.fnv64_fold (Dapper_util.Bytebuf.fnv64_fold h name) data)
    Dapper_util.Bytebuf.fnv64_offset (to_files is)

let read_page is pn =
  match page_offset_in_dump is pn with
  | Some off -> Some (String.sub is.is_pages off Layout.page_size)
  | None -> None

let write_page is pn data =
  if String.length data <> Layout.page_size then fail "write_page: bad size";
  match page_offset_in_dump is pn with
  | None -> fail "write_page: page %d not in dump" pn
  | Some off ->
    let b = Bytes.of_string is.is_pages in
    Bytes.blit_string data 0 b off Layout.page_size;
    { is with is_pages = Bytes.to_string b }

let read_u64 is addr =
  let pn = Layout.page_of_addr addr in
  match page_offset_in_dump is pn with
  | None -> fail "read_u64: address 0x%Lx not in dump" addr
  | Some off ->
    let within = Layout.page_offset addr in
    if within + 8 > Layout.page_size then begin
      (* crosses a page boundary: read bytewise *)
      let byte i =
        let a = Int64.add addr (Int64.of_int i) in
        let pn = Layout.page_of_addr a in
        match page_offset_in_dump is pn with
        | None -> fail "read_u64: address 0x%Lx not in dump" a
        | Some o -> Char.code is.is_pages.[o + Layout.page_offset a]
      in
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte i))
      done;
      !v
    end
    else Dapper_util.Bytebuf.get_i64 is.is_pages (off + within)

let write_u64 is addr value =
  let pn = Layout.page_of_addr addr in
  match page_offset_in_dump is pn with
  | None -> fail "write_u64: address 0x%Lx not in dump" addr
  | Some off ->
    let within = Layout.page_offset addr in
    let b = Bytes.of_string is.is_pages in
    if within + 8 > Layout.page_size then
      for i = 0 to 7 do
        let a = Int64.add addr (Int64.of_int i) in
        let pn = Layout.page_of_addr a in
        match page_offset_in_dump is pn with
        | None -> fail "write_u64: address 0x%Lx not in dump" a
        | Some o ->
          Bytes.set b (o + Layout.page_offset a)
            (Char.chr (Int64.to_int (Int64.shift_right_logical value (8 * i)) land 0xFF))
      done
    else Bytes.set_int64_le b (off + within) value;
    { is with is_pages = Bytes.to_string b }
