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

let hits_counter = ref 0
let misses_counter = ref 0

let hits () = !hits_counter
let misses () = !misses_counter

(* Per-run counter scoping: the process-global tallies above bleed
   across experiments (anything may reset them between two lookups a
   caller wants to difference), so a run that needs trustworthy numbers
   attaches its own sink for its duration. Every lookup feeds the
   globals and every attached sink. *)
type counters = { mutable c_hits : int; mutable c_misses : int }

let fresh_counters () = { c_hits = 0; c_misses = 0 }

let sinks : counters list ref = ref []

let attach c = sinks := c :: !sinks
let detach c = sinks := List.filter (fun s -> s != c) !sinks

let counting f =
  let c = fresh_counters () in
  attach c;
  Fun.protect ~finally:(fun () -> detach c) (fun () -> (f (), c))

let record_hit () =
  incr hits_counter;
  List.iter (fun c -> c.c_hits <- c.c_hits + 1) !sinks

let record_miss () =
  incr misses_counter;
  List.iter (fun c -> c.c_misses <- c.c_misses + 1) !sinks

let reset_counters () =
  hits_counter := 0;
  misses_counter := 0

let clear () =
  Hashtbl.reset cache;
  reset_counters ()

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
    record_hit ();
    plan
  | _ ->
    record_miss ();
    let plan = derive shape in
    Hashtbl.replace cache key plan;
    plan
