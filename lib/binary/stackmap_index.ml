type func_entry = {
  fe_fm : Stackmap.func_map;
  fe_end : int64;
  fe_ep_by_id : (int, Stackmap.eqpoint) Hashtbl.t;
  fe_ep_by_resume : (int64, Stackmap.eqpoint) Hashtbl.t;
  fe_ep_at_addr : (int64, Stackmap.eqpoint) Hashtbl.t;
  fe_entry_ep : Stackmap.eqpoint option;
  fe_live : (int * Stackmap.lv_key, Stackmap.live_value) Hashtbl.t;
  fe_live_named : (int * string, Stackmap.live_value) Hashtbl.t;
}

type t = {
  ix_by_name : (string, func_entry) Hashtbl.t;
  ix_by_addr : func_entry array; (* sorted by fm_addr *)
}

(* Monotone lookup counter; Rewrite differences it around each rewrite. *)

let lookups = ref 0

let lookup_count () = !lookups

(* All lookups match the first-hit semantics of the linear scans they
   replace, so duplicate names/addresses (which well-formed stack maps
   never contain) resolve identically: only the first binding wins. *)
let add_first tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v

let entry_of_fm (fm : Stackmap.func_map) =
  let neps = List.length fm.fm_eqpoints in
  let fe_ep_by_id = Hashtbl.create (neps * 2) in
  let fe_ep_by_resume = Hashtbl.create (neps * 2) in
  let fe_ep_at_addr = Hashtbl.create (neps * 2) in
  let fe_live = Hashtbl.create 16 in
  let fe_live_named = Hashtbl.create 16 in
  let entry = ref None in
  List.iter
    (fun (ep : Stackmap.eqpoint) ->
      add_first fe_ep_by_id ep.ep_id ep;
      add_first fe_ep_by_resume ep.ep_resume ep;
      add_first fe_ep_at_addr ep.ep_addr ep;
      if ep.ep_kind = Stackmap.Entry && !entry = None then entry := Some ep;
      List.iter
        (fun (lv : Stackmap.live_value) ->
          add_first fe_live (ep.ep_id, lv.lv_key) lv;
          add_first fe_live_named (ep.ep_id, lv.lv_name) lv)
        ep.ep_live)
    fm.fm_eqpoints;
  { fe_fm = fm;
    fe_end = Int64.add fm.fm_addr (Int64.of_int fm.fm_code_size);
    fe_ep_by_id; fe_ep_by_resume; fe_ep_at_addr; fe_entry_ep = !entry;
    fe_live; fe_live_named }

let build maps =
  let entries = List.map entry_of_fm maps in
  let ix_by_name = Hashtbl.create (List.length entries * 2) in
  List.iter (fun fe -> add_first ix_by_name fe.fe_fm.Stackmap.fm_name fe) entries;
  let ix_by_addr = Array.of_list entries in
  Array.sort
    (fun a b -> Int64.compare a.fe_fm.Stackmap.fm_addr b.fe_fm.Stackmap.fm_addr)
    ix_by_addr;
  { ix_by_name; ix_by_addr }

(* ----- per-maps memoization -----
   Keyed by physical identity of the (immutable) map list with a
   serialized-content fallback, so every consumer of the same binary shares
   one index and an index is built at most once per distinct stack-map
   content. Physical identity alone is not a sound cache key across
   regenerated binaries: tests (and reshuffling) rebuild structurally
   different map lists at addresses the allocator may reuse, and two
   different lists that are byte-for-byte equal (a recompiled app)
   should share one index rather than build two. Comparing the serialized
   maps exactly makes the key follow the content, so a regenerated or mutated
   binary can never hit a stale index. Bounded MRU list: reshuffling
   creates a new map list per epoch, and stale entries must not pin
   binaries forever. *)

type cache_entry = {
  ce_maps : Stackmap.func_map list;  (* fast path: physical identity *)
  ce_key : string;                   (* slow path: serialized content *)
  ce_ix : t;
}

let cache : cache_entry list ref = ref []
let cache_capacity = 32

let get maps =
  match !cache with
  | e :: _ when e.ce_maps == maps -> e.ce_ix
  | entries ->
    let e =
      match List.find_opt (fun e -> e.ce_maps == maps) entries with
      | Some e -> e
      | None ->
        let key = Stackmap.serialize maps in
        let ix =
          match List.find_opt (fun e -> String.equal e.ce_key key) entries with
          | Some e -> e.ce_ix
          | None -> build maps
        in
        { ce_maps = maps; ce_key = key; ce_ix = ix }
    in
    (* move to front: a hit must not age out behind newer map lists *)
    let rest = List.filter (fun c -> c != e) entries in
    cache := e :: List.filteri (fun k _ -> k < cache_capacity - 1) rest;
    e.ce_ix

let entry t name =
  incr lookups;
  Hashtbl.find_opt t.ix_by_name name

let find_func t name =
  match entry t name with
  | Some fe -> Some fe.fe_fm
  | None -> None

let entry_of_addr t a =
  incr lookups;
  let arr = t.ix_by_addr in
  let l = ref 0 and r = ref (Array.length arr - 1) and best = ref (-1) in
  while !l <= !r do
    let m = (!l + !r) / 2 in
    if Int64.compare arr.(m).fe_fm.Stackmap.fm_addr a <= 0 then begin
      best := m;
      l := m + 1
    end
    else r := m - 1
  done;
  if !best >= 0 && Int64.compare a arr.(!best).fe_end < 0 then Some arr.(!best)
  else None

let func_of_addr t a =
  match entry_of_addr t a with
  | Some fe -> Some fe.fe_fm
  | None -> None

let in_func f t name =
  match entry t name with
  | Some fe -> f fe
  | None -> None

let eqpoint_by_id t name id =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_by_id id) t name

let eqpoint_by_resume t name a =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_by_resume a) t name

let eqpoint_at_addr t name a =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_at_addr a) t name

let entry_eqpoint t name = in_func (fun fe -> fe.fe_entry_ep) t name

let live_value t name ep_id key =
  in_func (fun fe -> incr lookups; Hashtbl.find_opt fe.fe_live (ep_id, key)) t name

let live_value_named t name ep_id lv_name =
  in_func
    (fun fe -> incr lookups; Hashtbl.find_opt fe.fe_live_named (ep_id, lv_name))
    t name
