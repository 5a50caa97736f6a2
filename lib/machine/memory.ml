open Dapper_binary

exception Segfault of int64

type t = {
  pages : (int, bytes) Hashtbl.t;
  mutable fault_handler : (int -> bytes option) option;
  mutable faults : int;
  mutable dirty : (int, unit) Hashtbl.t option;
  (* One-entry page TLB: the page last resolved through [page] and its
     bytes. [tlb_pn] is -1 when empty; only pages present in [pages] at
     a non-negative address are cached, so a hit never skips a fault,
     and [map_page]/[unmap_page] empty it. *)
  mutable tlb_pn : int;
  mutable tlb_page : bytes;
}

let page_mask = Layout.page_size - 1

let create () =
  { pages = Hashtbl.create 256; fault_handler = None; faults = 0; dirty = None;
    tlb_pn = -1; tlb_page = Bytes.empty }

let set_fault_handler t h = t.fault_handler <- h
let fault_count t = t.faults

let tlb_flush t =
  t.tlb_pn <- -1;
  t.tlb_page <- Bytes.empty

(* Dirty-page tracking (pre-copy rounds). One branch per write when
   disabled, so the interpreter hot path is untouched for legacy runs. *)
let track_dirty t on =
  t.dirty <- (if on then Some (Hashtbl.create 64) else None)

let tracking_dirty t = t.dirty <> None

let clear_dirty t =
  match t.dirty with None -> () | Some d -> Hashtbl.reset d

let dirty_pages t =
  match t.dirty with
  | None -> []
  | Some d ->
    let arr = Array.make (Hashtbl.length d) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun pn () ->
        arr.(!i) <- pn;
        incr i)
      d;
    Array.sort Int.compare arr;
    Array.to_list arr

let mark_dirty t addr =
  match t.dirty with
  | None -> ()
  | Some d -> Hashtbl.replace d (Layout.page_of_addr addr) ()

let map_page t pn data =
  if Bytes.length data <> Layout.page_size then
    invalid_arg "Memory.map_page: wrong page size";
  (match t.dirty with
   | None -> ()
   | Some d -> Hashtbl.replace d pn ());
  tlb_flush t;
  Hashtbl.replace t.pages pn data

let unmap_page t pn =
  tlb_flush t;
  Hashtbl.remove t.pages pn

let is_mapped t pn = Hashtbl.mem t.pages pn

let page_numbers t =
  let arr = Array.make (Hashtbl.length t.pages) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun pn _ ->
      arr.(!i) <- pn;
      incr i)
    t.pages;
  Array.sort Int.compare arr;
  arr

let mapped_pages t = Array.to_list (page_numbers t)

let page_contents t pn = Hashtbl.find_opt t.pages pn

(* Resolve a page, consulting the fault handler for unmapped pages, and
   remember it in the TLB. *)
let page t addr =
  let pn = Layout.page_of_addr addr in
  let p =
    match Hashtbl.find t.pages pn with
    | p -> p
    | exception Not_found ->
      (match t.fault_handler with
       | Some h ->
         (match h pn with
          | Some data ->
            if Bytes.length data <> Layout.page_size then
              invalid_arg "Memory: fault handler returned wrong page size";
            t.faults <- t.faults + 1;
            Hashtbl.replace t.pages pn data;
            data
          | None -> raise (Segfault addr))
       | None -> raise (Segfault addr))
  in
  if Int64.compare addr 0L >= 0 then begin
    t.tlb_pn <- pn;
    t.tlb_page <- p
  end;
  p

(* In-page fast paths. A negative address never hits: its logical shift
   is at least 2^51, above any cached page number. *)
let[@inline] tlb_hit t addr =
  Int64.to_int (Int64.shift_right_logical addr Layout.page_bits) = t.tlb_pn

let[@inline] untracked t = match t.dirty with None -> true | Some _ -> false

let read_u8_slow t addr =
  let p = page t addr in
  Char.code (Bytes.get p (Layout.page_offset addr))

let[@inline] read_u8 t addr =
  if tlb_hit t addr then Char.code (Bytes.get t.tlb_page (Int64.to_int addr land page_mask))
  else read_u8_slow t addr

let write_u8_slow t addr v =
  let p = page t addr in
  mark_dirty t addr;
  Bytes.set p (Layout.page_offset addr) (Char.chr (v land 0xFF))

let[@inline] write_u8 t addr v =
  if tlb_hit t addr && untracked t then
    Bytes.set t.tlb_page (Int64.to_int addr land page_mask) (Char.unsafe_chr (v land 0xFF))
  else write_u8_slow t addr v

let read_u64_slow t addr =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then begin
    let p = page t addr in
    Bytes.get_int64_le p off
  end
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read_u8_slow t (Int64.add addr (Int64.of_int i))))
    done;
    !v
  end

let[@inline] read_u64 t addr =
  let off = Int64.to_int addr land page_mask in
  if off <= Layout.page_size - 8 && tlb_hit t addr then Bytes.get_int64_le t.tlb_page off
  else read_u64_slow t addr

let[@inline] read_u64_into t addr dst dst_off =
  let off = Int64.to_int addr land page_mask in
  if off <= Layout.page_size - 8 && tlb_hit t addr then
    Bytes.set_int64_le dst dst_off (Bytes.get_int64_le t.tlb_page off)
  else Bytes.set_int64_le dst dst_off (read_u64_slow t addr)

let write_u64_slow t addr v =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then begin
    let p = page t addr in
    mark_dirty t addr;
    Bytes.set_int64_le p off v
  end
  else
    for i = 0 to 7 do
      write_u8_slow t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

let[@inline] write_u64 t addr v =
  let off = Int64.to_int addr land page_mask in
  if off <= Layout.page_size - 8 && tlb_hit t addr && untracked t then
    Bytes.set_int64_le t.tlb_page off v
  else write_u64_slow t addr v

let read_bytes t addr len =
  if len < 0 then invalid_arg "Memory.read_bytes: negative length";
  let each_chunk f =
    let pos = ref 0 in
    while !pos < len do
      let a = Int64.add addr (Int64.of_int !pos) in
      let off = Layout.page_offset a in
      let chunk = min (len - !pos) (Layout.page_size - off) in
      f (page t a) off !pos chunk;
      pos := !pos + chunk
    done
  in
  (* Resolve every page before allocating: a range that is not mapped
     raises [Segfault] without first allocating [len] bytes. *)
  each_chunk (fun _ _ _ _ -> ());
  let b = Bytes.create len in
  each_chunk (fun p off pos chunk -> Bytes.blit p off b pos chunk);
  Bytes.unsafe_to_string b

let write_bytes t addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = Layout.page_offset a in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    let p = page t a in
    mark_dirty t a;
    Bytes.blit_string s !pos p off chunk;
    pos := !pos + chunk
  done

let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter (fun pn data -> Hashtbl.replace pages pn (Bytes.copy data)) t.pages;
  { pages; fault_handler = None; faults = 0; dirty = None; tlb_pn = -1;
    tlb_page = Bytes.empty }
