type t = X86_64 | Aarch64

let equal a b = a = b
let all = [ X86_64; Aarch64 ]

let name = function
  | X86_64 -> "x86-64"
  | Aarch64 -> "aarch64"

let of_name = function
  | "x86-64" | "x86_64" -> Some X86_64
  | "aarch64" | "arm64" -> Some Aarch64
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)

let gpr_count = function
  | X86_64 -> 16
  | Aarch64 -> 32

(* DWARF numbering: x86-64 rsp=7, rbp=6; aarch64 sp=31, fp=x29, lr=x30. *)
let sp = function
  | X86_64 -> 7
  | Aarch64 -> 31

let fp = function
  | X86_64 -> 6
  | Aarch64 -> 29

let link_reg = function
  | X86_64 -> None
  | Aarch64 -> Some 30

let ret_reg = function
  | X86_64 -> 0 (* rax *)
  | Aarch64 -> 0 (* x0 *)

let arg_regs = function
  | X86_64 -> [ 5; 4; 1; 2; 8; 9 ] (* rdi rsi rdx rcx r8 r9 *)
  | Aarch64 -> [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let callee_saved = function
  | X86_64 -> [ 3; 12; 13; 14; 15 ] (* rbx r12-r15 *)
  | Aarch64 -> [ 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 ]

let scratch = function
  | X86_64 -> [ 0; 10; 11 ] (* rax r10 r11 *)
  | Aarch64 -> [ 9; 10; 11 ]

let x86_names =
  [| "rax"; "rdx"; "rcx"; "rbx"; "rsi"; "rdi"; "rbp"; "rsp";
     "r8"; "r9"; "r10"; "r11"; "r12"; "r13"; "r14"; "r15" |]

let reg_name arch r =
  match arch with
  | X86_64 -> if r >= 0 && r < 16 then x86_names.(r) else Printf.sprintf "?x86r%d" r
  | Aarch64 ->
    if r = 31 then "sp"
    else if r >= 0 && r < 31 then Printf.sprintf "x%d" r
    else Printf.sprintf "?armr%d" r

let tls_offset = function
  | X86_64 -> 16 (* FS base points past a 16-byte TCB header *)
  | Aarch64 -> 0 (* TPIDR_EL0 points at the block start *)

let recode_slowdown = function
  | X86_64 -> 1.0
  | Aarch64 -> 3.96 (* 1004.91 / 253.69 from the paper's Fig. 5 discussion *)

let syscall_table = function
  | X86_64 ->
    [ (`Exit, 60); (`Write, 1); (`Sbrk, 12); (`Spawn, 56); (`Join, 61);
      (`Mutex_lock, 202); (`Mutex_unlock, 203); (`Clock, 228); (`Yield, 24) ]
  | Aarch64 ->
    [ (`Exit, 93); (`Write, 64); (`Sbrk, 214); (`Spawn, 220); (`Join, 260);
      (`Mutex_lock, 98); (`Mutex_unlock, 99); (`Clock, 113); (`Yield, 124) ]

let syscall_number arch k = List.assoc k (syscall_table arch)

let syscall_of_number arch n =
  List.find_map (fun (k, v) -> if v = n then Some k else None) (syscall_table arch)
