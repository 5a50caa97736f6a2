open Dapper_isa
open Dapper_binary

(* Offset-free projection of an equivalence point's live values. Stack
   shuffling permutes frame offsets but never keys, types, sizes or
   register/frame residency, so the shape — and therefore the plan
   derived from it — is stable across reshuffle epochs, while a software
   update that changes a function's live set changes its shape and
   invalidates the cached plan. *)
type lv_shape = {
  s_key : Stackmap.lv_key;
  s_ty : Stackmap.lv_ty;
  s_size : int;
  s_frame : bool;
}

type shape = {
  sh_src : lv_shape list;
  sh_dst : lv_shape list;
}

(* The memoized frame-placement decisions for one (function, eqpoint):
   which live values are frame-resident on both sides and therefore
   contribute a pointer-translation interval (key + source size). The
   plan stores no offsets — those are read through the stack-map index
   of whichever binary pair is current when the plan is applied. *)
type plan = {
  pl_shape : shape;
  pl_intervals : (Stackmap.lv_key * int) list;
}

type key = {
  k_app : string;
  k_src_arch : Arch.t;
  k_dst_arch : Arch.t;
  k_fn : string;
  k_ep : int;
}

let cache : (key, plan) Hashtbl.t = Hashtbl.create 256

(* Monotone: never reset, so a reader differences two readings. *)
let hits_counter = ref 0
let misses_counter = ref 0

let hits () = !hits_counter
let misses () = !misses_counter

let clear () = Hashtbl.reset cache

let shape_of_live live =
  List.map
    (fun (lv : Stackmap.live_value) ->
      { s_key = lv.lv_key; s_ty = lv.lv_ty; s_size = lv.lv_size;
        s_frame = (match lv.lv_loc with Stackmap.Frame _ -> true | Stackmap.Reg _ -> false) })
    live

(* The pairing decision the rewriter's interval pass used to re-derive
   with an O(src x dst) scan on every frame of every migration: source
   frame-resident values that are also frame-resident at the destination
   equivalence point. *)
let derive shape =
  (* First occurrence wins, matching the linear [List.find_opt] the
     rewriter used: a key whose first destination occurrence is a
     register never contributes an interval, even if a later duplicate
     is frame-resident. *)
  let dst_first = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem dst_first s.s_key) then Hashtbl.add dst_first s.s_key s.s_frame)
    shape.sh_dst;
  let intervals =
    List.filter_map
      (fun s ->
        if s.s_frame && Hashtbl.find_opt dst_first s.s_key = Some true then
          Some (s.s_key, s.s_size)
        else None)
      shape.sh_src
  in
  { pl_shape = shape; pl_intervals = intervals }

let lookup ~app ~src_arch ~dst_arch ~fn ~ep_id ~(src_ep : Stackmap.eqpoint)
    ~(dst_ep : Stackmap.eqpoint) =
  let key = { k_app = app; k_src_arch = src_arch; k_dst_arch = dst_arch;
              k_fn = fn; k_ep = ep_id } in
  let shape = { sh_src = shape_of_live src_ep.ep_live;
                sh_dst = shape_of_live dst_ep.ep_live } in
  match Hashtbl.find_opt cache key with
  | Some plan when plan.pl_shape = shape ->
    incr hits_counter;
    plan
  | _ ->
    incr misses_counter;
    let plan = derive shape in
    Hashtbl.replace cache key plan;
    plan
