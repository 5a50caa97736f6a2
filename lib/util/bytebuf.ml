type t = Buffer.t

let create n = Buffer.create n
let length = Buffer.length
let contents = Buffer.contents

let of_string s =
  let b = Buffer.create (String.length s) in
  Buffer.add_string b s;
  b

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u16 b v;
  add_u16 b (v lsr 16)

let add_i64 b v =
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let add_bytes = Buffer.add_string

let get_u8 s off = Char.code s.[off]
let get_u16 s off = get_u8 s off lor (get_u8 s (off + 1) lsl 8)
let get_u32 s off = get_u16 s off lor (get_u16 s (off + 2) lsl 16)

let get_i64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 s (off + i)))
  done;
  !v

(* FNV-1a (64-bit): the tree's only content digest. Image files, page
   payloads, transfer manifests, replay logs, [Process.observe]
   snapshots and the load-plane fingerprints all hash with it, so a
   checksum computed on one side of a link is comparable on the other.
   The folds are plain loops over an unboxed accumulator: no per-byte
   allocation and no closure per byte. *)
let fnv64_offset = 0xcbf29ce484222325L
let fnv64_prime = 0x100000001b3L

let fnv64_mix h v = Int64.mul (Int64.logxor h v) fnv64_prime

let fnv64_bytes h b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Bytebuf.fnv64_bytes";
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv64_mix !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))
  done;
  !h

let fnv64_sub h s off len = fnv64_bytes h (Bytes.unsafe_of_string s) off len
let fnv64_fold h s = fnv64_sub h s 0 (String.length s)
let fnv64 s = fnv64_fold fnv64_offset s

let fnv64_int h n =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv64_mix !h (Int64.of_int ((n lsr (i * 8)) land 0xff))
  done;
  !h
