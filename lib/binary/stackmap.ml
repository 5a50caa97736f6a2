open Dapper_util

type loc = Reg of int | Frame of int
type lv_key = Slot of int | Temp of int
type lv_ty = Lv_i64 | Lv_f64 | Lv_ptr

type live_value = {
  lv_key : lv_key;
  lv_name : string;
  lv_ty : lv_ty;
  lv_size : int;
  lv_loc : loc;
}

type ep_kind =
  | Entry
  | Call_site of { cs_nargs : int }
  | Backedge

type eqpoint = {
  ep_id : int;
  ep_kind : ep_kind;
  ep_addr : int64;
  ep_resume : int64;
  ep_live : live_value list;
}

type func_map = {
  fm_name : string;
  fm_addr : int64;
  fm_code_size : int;
  fm_frame_size : int;
  fm_saved : (int * int) list;
  fm_promoted : (int * int) list;
  fm_leaf : bool;
  fm_eqpoints : eqpoint list;
}

(* ----- serialization -----
   Simple length-prefixed little-endian format; signed small ints are
   stored as u32 two's complement. *)

let add_str b s =
  Bytebuf.add_u32 b (String.length s);
  Bytebuf.add_bytes b s

let add_s32 b v = Bytebuf.add_u32 b (v land 0xFFFFFFFF)

let add_pairs b pairs =
  Bytebuf.add_u32 b (List.length pairs);
  List.iter
    (fun (a, o) ->
      add_s32 b a;
      add_s32 b o)
    pairs

let ty_code = function Lv_i64 -> 0 | Lv_f64 -> 1 | Lv_ptr -> 2

let ty_of_code = function
  | 0 -> Lv_i64
  | 1 -> Lv_f64
  | 2 -> Lv_ptr
  | n -> invalid_arg (Printf.sprintf "Stackmap: bad type code %d" n)

let serialize maps =
  let b = Bytebuf.create 4096 in
  Bytebuf.add_u32 b (List.length maps);
  List.iter
    (fun fm ->
      add_str b fm.fm_name;
      Bytebuf.add_i64 b fm.fm_addr;
      add_s32 b fm.fm_code_size;
      add_s32 b fm.fm_frame_size;
      add_pairs b fm.fm_saved;
      add_pairs b fm.fm_promoted;
      Bytebuf.add_u8 b (if fm.fm_leaf then 1 else 0);
      Bytebuf.add_u32 b (List.length fm.fm_eqpoints);
      List.iter
        (fun ep ->
          add_s32 b ep.ep_id;
          (match ep.ep_kind with
           | Entry -> Bytebuf.add_u8 b 0; add_s32 b 0
           | Call_site { cs_nargs } -> Bytebuf.add_u8 b 1; add_s32 b cs_nargs
           | Backedge -> Bytebuf.add_u8 b 2; add_s32 b 0);
          Bytebuf.add_i64 b ep.ep_addr;
          Bytebuf.add_i64 b ep.ep_resume;
          Bytebuf.add_u32 b (List.length ep.ep_live);
          List.iter
            (fun lv ->
              (match lv.lv_key with
               | Slot s -> Bytebuf.add_u8 b 0; add_s32 b s
               | Temp t -> Bytebuf.add_u8 b 1; add_s32 b t);
              add_str b lv.lv_name;
              Bytebuf.add_u8 b (ty_code lv.lv_ty);
              add_s32 b lv.lv_size;
              match lv.lv_loc with
              | Reg r -> Bytebuf.add_u8 b 0; add_s32 b r
              | Frame o -> Bytebuf.add_u8 b 1; add_s32 b o)
            ep.ep_live)
        fm.fm_eqpoints)
    maps;
  Bytebuf.contents b

type reader = { src : string; mutable pos : int }

let ru8 r = let v = Bytebuf.get_u8 r.src r.pos in r.pos <- r.pos + 1; v
let ru32 r = let v = Bytebuf.get_u32 r.src r.pos in r.pos <- r.pos + 4; v
let rs32 r = let v = ru32 r in if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v
let ri64 r = let v = Bytebuf.get_i64 r.src r.pos in r.pos <- r.pos + 8; v

let rstr r =
  let n = ru32 r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rlist r f = List.init (ru32 r) (fun _ -> f r)

let rpairs r = rlist r (fun r -> let a = rs32 r in let o = rs32 r in (a, o))

let deserialize s =
  let r = { src = s; pos = 0 } in
  rlist r (fun r ->
      let fm_name = rstr r in
      let fm_addr = ri64 r in
      let fm_code_size = rs32 r in
      let fm_frame_size = rs32 r in
      let fm_saved = rpairs r in
      let fm_promoted = rpairs r in
      let fm_leaf = ru8 r = 1 in
      let fm_eqpoints =
        rlist r (fun r ->
            let ep_id = rs32 r in
            let kind_code = ru8 r in
            let kind_arg = rs32 r in
            let ep_kind =
              match kind_code with
              | 0 -> Entry
              | 1 -> Call_site { cs_nargs = kind_arg }
              | 2 -> Backedge
              | n -> invalid_arg (Printf.sprintf "Stackmap: bad ep kind %d" n)
            in
            let ep_addr = ri64 r in
            let ep_resume = ri64 r in
            let ep_live =
              rlist r (fun r ->
                  let key_code = ru8 r in
                  let key_arg = rs32 r in
                  let lv_key =
                    match key_code with
                    | 0 -> Slot key_arg
                    | 1 -> Temp key_arg
                    | n -> invalid_arg (Printf.sprintf "Stackmap: bad lv key %d" n)
                  in
                  let lv_name = rstr r in
                  let lv_ty = ty_of_code (ru8 r) in
                  let lv_size = rs32 r in
                  let loc_code = ru8 r in
                  let loc_arg = rs32 r in
                  let lv_loc =
                    match loc_code with
                    | 0 -> Reg loc_arg
                    | 1 -> Frame loc_arg
                    | n -> invalid_arg (Printf.sprintf "Stackmap: bad loc %d" n)
                  in
                  { lv_key; lv_name; lv_ty; lv_size; lv_loc })
            in
            { ep_id; ep_kind; ep_addr; ep_resume; ep_live })
      in
      { fm_name; fm_addr; fm_code_size; fm_frame_size; fm_saved; fm_promoted;
        fm_leaf; fm_eqpoints })

let find_func maps name = List.find_opt (fun fm -> fm.fm_name = name) maps

let func_of_addr maps a =
  List.find_opt
    (fun fm ->
      Int64.compare a fm.fm_addr >= 0
      && Int64.compare a (Int64.add fm.fm_addr (Int64.of_int fm.fm_code_size)) < 0)
    maps

let eqpoint_by_resume fm a =
  List.find_opt (fun ep -> Int64.equal ep.ep_resume a) fm.fm_eqpoints

let eqpoint_by_id fm id = List.find_opt (fun ep -> ep.ep_id = id) fm.fm_eqpoints
