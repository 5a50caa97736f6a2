open Dapper_util
open Dapper_isa

type section = {
  sec_name : string;
  sec_addr : int64;
  sec_data : string;
  sec_exec : bool;
  sec_write : bool;
}

type sym_kind = Sym_func | Sym_object | Sym_tls

type symbol = {
  sym_name : string;
  sym_addr : int64;
  sym_size : int;
  sym_kind : sym_kind;
}

type anchors = {
  a_entry : int64;
  a_exit_stub : int64;
  a_thread_exit_stub : int64;
  a_flag : int64;
}

type t = {
  bin_app : string;
  bin_arch : Arch.t;
  bin_sections : section list;
  bin_symbols : symbol list;
  bin_stackmaps : Stackmap.func_map list;
  bin_tls_size : int;
  bin_tls_init : string;
  bin_anchors : anchors;
}

let find_section b name = List.find_opt (fun s -> s.sec_name = name) b.bin_sections
let find_symbol b name = List.find_opt (fun s -> s.sym_name = name) b.bin_symbols

let text_size b =
  match find_section b ".text" with
  | Some s -> String.length s.sec_data
  | None -> 0

let code_bytes b addr len =
  match find_section b ".text" with
  | None -> invalid_arg "Binary.code_bytes: no text section"
  | Some s ->
    let off = Int64.to_int (Int64.sub addr s.sec_addr) in
    if off < 0 || off + len > String.length s.sec_data then
      invalid_arg
        (Printf.sprintf "Binary.code_bytes: [0x%Lx, +%d) out of text range" addr len);
    String.sub s.sec_data off len

let with_text b data =
  let sections =
    List.map
      (fun s -> if s.sec_name = ".text" then { s with sec_data = data } else s)
      b.bin_sections
  in
  { b with bin_sections = sections }

(* ----- serialization ----- *)

let add_str buf s =
  Bytebuf.add_u32 buf (String.length s);
  Bytebuf.add_bytes buf s

let serialize b =
  let buf = Bytebuf.create 65536 in
  add_str buf "DAPPERELF";
  add_str buf b.bin_app;
  add_str buf (Arch.name b.bin_arch);
  Bytebuf.add_u32 buf (List.length b.bin_sections);
  List.iter
    (fun s ->
      add_str buf s.sec_name;
      Bytebuf.add_i64 buf s.sec_addr;
      Bytebuf.add_u8 buf (if s.sec_exec then 1 else 0);
      Bytebuf.add_u8 buf (if s.sec_write then 1 else 0);
      add_str buf s.sec_data)
    b.bin_sections;
  Bytebuf.add_u32 buf (List.length b.bin_symbols);
  List.iter
    (fun s ->
      add_str buf s.sym_name;
      Bytebuf.add_i64 buf s.sym_addr;
      Bytebuf.add_u32 buf s.sym_size;
      Bytebuf.add_u8 buf
        (match s.sym_kind with Sym_func -> 0 | Sym_object -> 1 | Sym_tls -> 2))
    b.bin_symbols;
  add_str buf (Stackmap.serialize b.bin_stackmaps);
  Bytebuf.add_u32 buf b.bin_tls_size;
  add_str buf b.bin_tls_init;
  Bytebuf.add_i64 buf b.bin_anchors.a_entry;
  Bytebuf.add_i64 buf b.bin_anchors.a_exit_stub;
  Bytebuf.add_i64 buf b.bin_anchors.a_thread_exit_stub;
  Bytebuf.add_i64 buf b.bin_anchors.a_flag;
  Bytebuf.contents buf

type reader = { src : string; mutable pos : int }

let ru8 r = let v = Bytebuf.get_u8 r.src r.pos in r.pos <- r.pos + 1; v
let ru32 r = let v = Bytebuf.get_u32 r.src r.pos in r.pos <- r.pos + 4; v
let ri64 r = let v = Bytebuf.get_i64 r.src r.pos in r.pos <- r.pos + 8; v

let rstr r =
  let n = ru32 r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let deserialize s =
  let r = { src = s; pos = 0 } in
  let magic = rstr r in
  if magic <> "DAPPERELF" then invalid_arg "Binary.deserialize: bad magic";
  let bin_app = rstr r in
  let arch_name = rstr r in
  let bin_arch =
    match Arch.of_name arch_name with
    | Some a -> a
    | None -> invalid_arg ("Binary.deserialize: bad arch " ^ arch_name)
  in
  let bin_sections =
    List.init (ru32 r) (fun _ ->
        let sec_name = rstr r in
        let sec_addr = ri64 r in
        let sec_exec = ru8 r = 1 in
        let sec_write = ru8 r = 1 in
        let sec_data = rstr r in
        { sec_name; sec_addr; sec_data; sec_exec; sec_write })
  in
  let bin_symbols =
    List.init (ru32 r) (fun _ ->
        let sym_name = rstr r in
        let sym_addr = ri64 r in
        let sym_size = ru32 r in
        let sym_kind =
          match ru8 r with
          | 0 -> Sym_func
          | 1 -> Sym_object
          | 2 -> Sym_tls
          | n -> invalid_arg (Printf.sprintf "Binary.deserialize: bad sym kind %d" n)
        in
        { sym_name; sym_addr; sym_size; sym_kind })
  in
  let bin_stackmaps = Stackmap.deserialize (rstr r) in
  let bin_tls_size = ru32 r in
  let bin_tls_init = rstr r in
  let a_entry = ri64 r in
  let a_exit_stub = ri64 r in
  let a_thread_exit_stub = ri64 r in
  let a_flag = ri64 r in
  { bin_app; bin_arch; bin_sections; bin_symbols; bin_stackmaps; bin_tls_size;
    bin_tls_init;
    bin_anchors = { a_entry; a_exit_stub; a_thread_exit_stub; a_flag } }
