open Dapper_isa
open Dapper_binary
module Bytebuf = Dapper_util.Bytebuf

type thread_status =
  | Runnable
  | Blocked_join of int
  | Blocked_lock of int64
  | Trapped
  | Stopped
  | Exited of int64

type thread = {
  tid : int;
  regs : bytes;
  mutable pc : int64;
  mutable tls : int64;
  mutable status : thread_status;
  mutable instrs : int64;
}

type crash = { cr_tid : int; cr_pc : int64; cr_reason : string }

type nondet = {
  nd_syscall : tid:int -> sys:string -> int64 -> int64;
  nd_sched : tid:int -> steps:int -> unit;
}

type t = {
  arch : Arch.t;
  mem : Memory.t;
  binary : Binary.t;
  mutable threads : thread list;
  mutable next_tid : int;
  mutable brk : int64;
  stdout_buf : Buffer.t;
  mutable exit_code : int64 option;
  mutable crash : crash option;
  mutable total_instrs : int64;
  mutable nondet : nondet option;
  code : code_cache;
}

(* Decoded .text: one array per page, indexed by page offset, filled on
   the first execution of each pc (so code pages fault in exactly when
   an uncached interpreter would fault them). Each entry holds the
   instruction and its fall-through pc, boxed once at decode time.
   Pages not yet executed, or invalidated by a store, share [blank]. *)
and decoded = { ins : Minstr.t; next : int64 }

and code_cache = {
  cc_first : int;                  (* page number of the first .text page *)
  cc_pages : decoded array array;  (* one per .text page *)
}

exception Exec_error of string

let ( +% ) = Int64.add
let ( -% ) = Int64.sub

(* ----- register file: 8 little-endian bytes per DWARF register ----- *)

let reg_count = 33

let[@inline] get regs r = Bytes.get_int64_le regs (r lsl 3)
let[@inline] set regs r v = Bytes.set_int64_le regs (r lsl 3) v
let reg th r = get th.regs r
let set_reg th r v = set th.regs r v

let regs_to_array regs = Array.init (Bytes.length regs / 8) (get regs)

let regs_of_array a =
  let regs = Bytes.create (8 * Array.length a) in
  Array.iteri (set regs) a;
  regs

(* ----- code cache ----- *)

let page_mask = Layout.page_size - 1

let undecoded = { ins = Minstr.Nop; next = 0L }
let blank = Array.make Layout.page_size undecoded

let code_cache (binary : Binary.t) =
  match Binary.find_section binary ".text" with
  | Some s when String.length s.sec_data > 0 ->
    let first = Layout.page_of_addr s.sec_addr in
    let last =
      Layout.page_of_addr (s.sec_addr +% Int64.of_int (String.length s.sec_data - 1))
    in
    { cc_first = first; cc_pages = Array.make (last - first + 1) blank }
  | _ -> { cc_first = 0; cc_pages = [||] }

(* Index of [addr]'s page in [cc_pages]; out of range (possibly
   negative) when [addr] is outside .text. *)
let[@inline] page_index cc addr =
  (Int64.to_int addr lsr Layout.page_bits) - cc.cc_first

(* Drop the decoded entries of the pages [addr .. addr+len-1] touches and
   of the page before them: an x86-sim instruction may straddle a page
   boundary, so a store can change an instruction that starts one page
   earlier. *)
let invalidate_code cc addr len =
  let lo = page_index cc addr - 1 in
  let hi = page_index cc (addr +% Int64.of_int (len - 1)) in
  for i = max lo 0 to min hi (Array.length cc.cc_pages - 1) do
    cc.cc_pages.(i) <- blank
  done

(* Every store through the process keeps the code cache coherent; a
   store outside .text and the page after it costs one compare. *)
let[@inline] in_code cc addr =
  let i = page_index cc addr in
  i >= 0 && i <= Array.length cc.cc_pages

let[@inline] store_u64 t addr v =
  if in_code t.code addr then invalidate_code t.code addr 8;
  Memory.write_u64 t.mem addr v

let[@inline] store_u8 t addr v =
  if in_code t.code addr then invalidate_code t.code addr 1;
  Memory.write_u8 t.mem addr v

(* ----- demand paging: code pages from the binary, stack growth ----- *)

let in_stack_region addr =
  Int64.compare addr (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
  && Int64.compare addr Layout.stack_top < 0

let install_code_paging mem (binary : Binary.t) =
  let text = Binary.find_section binary ".text" in
  let handler pn =
    let addr = Layout.addr_of_page pn in
    if Int64.compare addr Layout.code_base >= 0 && Int64.compare addr Layout.data_base < 0
    then begin
      let page = Bytes.make Layout.page_size '\000' in
      (match text with
       | Some s ->
         let off = Int64.to_int (addr -% s.sec_addr) in
         let len = String.length s.sec_data in
         if off < len then begin
           let n = min Layout.page_size (len - off) in
           if off >= 0 then Bytes.blit_string s.sec_data off page 0 n
         end
       | None -> ());
      Some page
    end
    else if in_stack_region addr then
      (* stacks grow on demand; untouched pages never enter a dump *)
      Some (Bytes.make Layout.page_size '\000')
    else None
  in
  Memory.set_fault_handler mem (Some handler)

(* ----- loading ----- *)

let map_section mem (s : Binary.section) =
  let len = String.length s.sec_data in
  let first = Layout.page_of_addr s.sec_addr in
  let last = Layout.page_of_addr (s.sec_addr +% Int64.of_int (max 0 (len - 1))) in
  for pn = first to last do
    if not (Memory.is_mapped mem pn) then
      Memory.map_page mem pn (Bytes.make Layout.page_size '\000')
  done;
  Memory.write_bytes mem s.sec_addr s.sec_data

let map_zero_range mem addr len =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr +% Int64.of_int (max 0 (len - 1))) in
  for pn = first to last do
    if not (Memory.is_mapped mem pn) then
      Memory.map_page mem pn (Bytes.make Layout.page_size '\000')
  done

let setup_tls t tid =
  let block = Layout.tls_block_of_thread tid in
  map_zero_range t.mem block t.binary.bin_tls_size;
  Memory.write_bytes t.mem block t.binary.bin_tls_init;
  block +% Int64.of_int (Arch.tls_offset t.arch)

(* A fresh thread's stack: sp starts a redzone below the region top, and
   the bottom-of-stack return target is the given exit stub. On x86 the
   stub address is pushed; on aarch64 it is placed in the link register. *)
let setup_stack t tid ~stub =
  let base = Layout.stack_base_of_thread tid in
  (* map only the hot top; deeper pages fault in on demand *)
  map_zero_range t.mem (base -% Int64.of_int (8 * Layout.page_size)) (8 * Layout.page_size);
  let sp = base -% 64L in
  match t.arch with
  | Arch.X86_64 ->
    let sp = sp -% 8L in
    Memory.write_u64 t.mem sp stub;
    sp
  | Arch.Aarch64 -> sp

let make_thread t ~tid ~pc ~stub =
  let th =
    { tid; regs = Bytes.make (8 * reg_count) '\000'; pc; tls = 0L; status = Runnable;
      instrs = 0L }
  in
  let sp = setup_stack t tid ~stub in
  set_reg th (Arch.sp t.arch) sp;
  (match Arch.link_reg t.arch with
   | Some lr -> set_reg th lr stub
   | None -> ());
  th.tls <- setup_tls t tid;
  th

let load binary =
  let mem = Memory.create () in
  let t =
    { arch = binary.Binary.bin_arch; mem; binary; threads = []; next_tid = 0;
      brk = Layout.heap_base; stdout_buf = Buffer.create 256; exit_code = None;
      crash = None; total_instrs = 0L; nondet = None; code = code_cache binary }
  in
  List.iter
    (fun (s : Binary.section) -> if not s.sec_exec then map_section mem s)
    binary.bin_sections;
  install_code_paging mem binary;
  let main = make_thread t ~tid:0 ~pc:binary.bin_anchors.a_entry
      ~stub:binary.bin_anchors.a_exit_stub in
  t.threads <- [ main ];
  t.next_tid <- 1;
  t

let reconstruct binary mem ~threads ~brk =
  install_code_paging mem binary;
  let next_tid = 1 + List.fold_left (fun m th -> max m th.tid) 0 threads in
  { arch = binary.Binary.bin_arch; mem; binary; threads; next_tid; brk;
    stdout_buf = Buffer.create 256; exit_code = None; crash = None;
    total_instrs = 0L; nondet = None; code = code_cache binary }

(* ----- helpers ----- *)

let stdout_contents t = Buffer.contents t.stdout_buf

let thread t tid =
  match List.find_opt (fun th -> th.tid = tid) t.threads with
  | Some th -> th
  | None -> raise (Exec_error (Printf.sprintf "no thread %d" tid))

let live_threads t =
  List.filter (fun th -> match th.status with Exited _ -> false | _ -> true) t.threads

let all_quiescent t =
  List.for_all
    (fun th ->
      match th.status with
      | Trapped | Blocked_join _ | Blocked_lock _ | Stopped | Exited _ -> true
      | Runnable -> false)
    t.threads

type vma_kind = Vma_code | Vma_data | Vma_tls | Vma_heap | Vma_stack of int

let vma_kind_of_page t pn =
  if not (Memory.is_mapped t.mem pn) then None
  else
    let addr = Layout.addr_of_page pn in
    let within lo hi = Int64.compare addr lo >= 0 && Int64.compare addr hi < 0 in
    if within Layout.code_base Layout.data_base then Some Vma_code
    else if within Layout.data_base Layout.tls_base then Some Vma_data
    else if within Layout.tls_base Layout.heap_base then Some Vma_tls
    else if within Layout.heap_base (Layout.stack_limit_of_thread (Layout.max_threads - 1))
    then Some Vma_heap
    else if Int64.compare addr Layout.stack_top < 0 then begin
      let off = Int64.to_int (Layout.stack_top -% addr) in
      Some (Vma_stack ((off - 1) / Layout.stack_region))
    end
    else None

(* ----- read-only observable-state snapshot ----- *)

type snapshot = {
  sn_data : int64;
  sn_heap : int64;
  sn_tls : int64;
  sn_brk : int64;
  sn_threads : int;
  sn_stdout : string;
  sn_exit : int64 option;
}

(* One page's digest: FNV-1a continued from [h] over the page number's
   8 little-endian bytes, then the page bytes, so the digest is
   sensitive to which pages are mapped, not just their concatenated
   contents. The transformation flag is runtime-monitor state, not
   program state: it is raised on the source during a pause and dropped
   again by restore, so its 8 bytes digest as zeros. *)
let zero_word = String.make 8 '\000'

let page_digest t h pn page =
  let h = Bytebuf.fnv64_int h pn in
  let n = Bytes.length page in
  let flag = t.binary.Binary.bin_anchors.Binary.a_flag in
  if pn <> Layout.page_of_addr flag then Bytebuf.fnv64_bytes h page 0 n
  else
    let lo = min (Layout.page_offset flag) n in
    let hi = min (lo + 8) n in
    let h = Bytebuf.fnv64_bytes h page 0 lo in
    let h = Bytebuf.fnv64_sub h zero_word 0 (hi - lo) in
    Bytebuf.fnv64_bytes h page hi (n - hi)

let observe t =
  let data = ref Bytebuf.fnv64_offset
  and heap = ref Bytebuf.fnv64_offset
  and tls = ref Bytebuf.fnv64_offset in
  Array.iter
    (fun pn ->
      let into acc =
        (* page_contents never consults the fault handler: observing a
           process must not fault pages in or perturb fault accounting *)
        match Memory.page_contents t.mem pn with
        | Some page -> acc := page_digest t !acc pn page
        | None -> ()
      in
      match vma_kind_of_page t pn with
      | Some Vma_data -> into data
      | Some Vma_heap -> into heap
      | Some Vma_tls -> into tls
      | Some Vma_code | Some (Vma_stack _) | None -> ())
    (Memory.page_numbers t.mem);
  { sn_data = !data;
    sn_heap = !heap;
    sn_tls = !tls;
    sn_brk = t.brk;
    sn_threads = List.length (live_threads t);
    sn_stdout = Buffer.contents t.stdout_buf;
    sn_exit = t.exit_code }

(* Per-page digests of the same pages [observe] folds (data/heap/TLS,
   flag word masked), each from a fresh offset basis — the localization
   companion to [observe]: when two snapshots differ, diffing the two
   page lists names the diverging pages. *)
let observe_pages t =
  Array.fold_left
    (fun acc pn ->
      match vma_kind_of_page t pn with
      | Some ((Vma_data | Vma_heap | Vma_tls) as kind) ->
        (match Memory.page_contents t.mem pn with
         | Some page -> (kind, pn, page_digest t Bytebuf.fnv64_offset pn page) :: acc
         | None -> acc)
      | Some Vma_code | Some (Vma_stack _) | None -> acc)
    []
    (Memory.page_numbers t.mem)
  |> List.rev

let state_equal a b =
  Int64.equal a.sn_data b.sn_data
  && Int64.equal a.sn_heap b.sn_heap
  && Int64.equal a.sn_tls b.sn_tls
  && Int64.equal a.sn_brk b.sn_brk
  && a.sn_threads = b.sn_threads

let snapshot_to_string s =
  Printf.sprintf
    "data=%016Lx heap=%016Lx tls=%016Lx brk=0x%Lx threads=%d stdout=%dB exit=%s"
    s.sn_data s.sn_heap s.sn_tls s.sn_brk s.sn_threads
    (String.length s.sn_stdout)
    (match s.sn_exit with None -> "-" | Some c -> Int64.to_string c)

(* ----- ptrace-like interface ----- *)

let peek_data t addr = Memory.read_u64 t.mem addr
let poke_data t addr v = store_u64 t addr v

(* ----- interpreter ----- *)

(* Decode the instruction at [pc] from memory, caching it when [pc] is in
   .text. Pcs outside .text (only wild jumps reach them) are decoded on
   every execution, so they need no invalidation. *)
let decode t pc =
  let window = Memory.read_bytes t.mem pc 16 in
  match Encoding.decode t.arch window 0 with
  | Some (ins, sz) ->
    let d = { ins; next = pc +% Int64.of_int sz } in
    let cc = t.code in
    let i = page_index cc pc in
    if i >= 0 && i < Array.length cc.cc_pages then begin
      if cc.cc_pages.(i) == blank then
        cc.cc_pages.(i) <- Array.make Layout.page_size undecoded;
      cc.cc_pages.(i).(Int64.to_int pc land page_mask) <- d
    end;
    d
  | None -> raise (Exec_error (Printf.sprintf "undecodable instruction at 0x%Lx" pc))

let f64 v = Int64.float_of_bits v
let of_f64 v = Int64.bits_of_float v
let bool64 b = if b then 1L else 0L

let[@inline] eval_binop (op : Minstr.binop) a b =
  match op with
  | Add -> a +% b
  | Sub -> a -% b
  | Mul -> Int64.mul a b
  | Div -> if Int64.equal b 0L then raise (Exec_error "division by zero") else Int64.div a b
  | Rem -> if Int64.equal b 0L then raise (Exec_error "division by zero") else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Sar -> Int64.shift_right a (Int64.to_int b land 63)
  | Fadd -> of_f64 (f64 a +. f64 b)
  | Fsub -> of_f64 (f64 a -. f64 b)
  | Fmul -> of_f64 (f64 a *. f64 b)
  | Fdiv -> of_f64 (f64 a /. f64 b)
  | Cmpeq -> bool64 (Int64.equal a b)
  | Cmpne -> bool64 (not (Int64.equal a b))
  | Cmplt -> bool64 (Int64.compare a b < 0)
  | Cmple -> bool64 (Int64.compare a b <= 0)
  | Cmpgt -> bool64 (Int64.compare a b > 0)
  | Cmpge -> bool64 (Int64.compare a b >= 0)
  | Cmpult -> bool64 (Int64.unsigned_compare a b < 0)
  | Fcmpeq -> bool64 (Float.equal (f64 a) (f64 b))
  | Fcmplt -> bool64 (f64 a < f64 b)
  | Fcmple -> bool64 (f64 a <= f64 b)

let[@inline] eval_unop (op : Minstr.unop) a =
  match op with
  | Neg -> Int64.neg a
  | Not -> Int64.lognot a
  | Fneg -> of_f64 (-.f64 a)
  | Sitofp -> of_f64 (Int64.to_float a)
  | Fptosi -> Int64.of_float (f64 a)
  | Fsqrt -> of_f64 (Float.sqrt (f64 a))

let x86_arg_regs = Array.of_list (Arch.arg_regs Arch.X86_64)
let arm_arg_regs = Array.of_list (Arch.arg_regs Arch.Aarch64)

let arg_regs = function
  | Arch.X86_64 -> x86_arg_regs
  | Arch.Aarch64 -> arm_arg_regs

(* Completed syscall results flow through the nondet tap: a recorder
   logs the value unchanged, a replayer validates it (or substitutes it,
   for the genuinely nondeterministic clock). Blocked paths never reach
   the tap — the retry that eventually completes does. *)
let tap t (th : thread) sys v =
  match t.nondet with None -> v | Some h -> h.nd_syscall ~tid:th.tid ~sys v

let ret t th sys v = set_reg th (Arch.ret_reg t.arch) (tap t th sys v)

(* Executes a syscall for [th]. Returns [true] if the pc should advance
   (non-blocking path) or [false] if the thread blocked (pc stays on the
   syscall so it retries when rescheduled). *)
let exec_syscall t (th : thread) num =
  let arg i = reg th (arg_regs t.arch).(i) in
  match Arch.syscall_of_number t.arch num with
  | None -> raise (Exec_error (Printf.sprintf "unknown syscall %d" num))
  | Some `Exit ->
    let code = arg 0 in
    (* record-only: the exit code is program state, never substituted *)
    ignore (tap t th "exit" code);
    if th.tid = 0 then begin
      t.exit_code <- Some code;
      List.iter (fun o -> o.status <- Exited code) t.threads
    end
    else th.status <- Exited code;
    true
  | Some `Write ->
    let addr = arg 1 and len = Int64.to_int (arg 2) in
    if len < 0 then raise (Exec_error (Printf.sprintf "write: negative length %d" len));
    Buffer.add_string t.stdout_buf (Memory.read_bytes t.mem addr len);
    ret t th "write" (Int64.of_int len);
    true
  | Some `Sbrk ->
    let delta = Int64.to_int (arg 0) in
    let old = t.brk in
    if delta > 0 then begin
      (* the heap may grow up to the lowest thread stack, no further;
         refuse before mapping anything, since pages are mapped eagerly *)
      let limit = Layout.stack_limit_of_thread (Layout.max_threads - 1) in
      if delta > Int64.to_int (limit -% old) then
        raise
          (Exec_error
             (Printf.sprintf "sbrk: break 0x%Lx + %d crosses the stack region at 0x%Lx"
                old delta limit));
      map_zero_range t.mem old delta;
      t.brk <- old +% Int64.of_int delta
    end;
    ret t th "sbrk" old;
    true
  | Some `Spawn ->
    let fn = arg 0 and a0 = arg 1 in
    if t.next_tid >= Layout.max_threads then begin
      ret t th "spawn" (-1L);
      true
    end
    else begin
      let tid = t.next_tid in
      t.next_tid <- tid + 1;
      let child = make_thread t ~tid ~pc:fn ~stub:t.binary.bin_anchors.a_thread_exit_stub in
      set_reg child (arg_regs t.arch).(0) a0;
      t.threads <- t.threads @ [ child ];
      ret t th "spawn" (Int64.of_int tid);
      true
    end
  | Some `Join ->
    let target = Int64.to_int (arg 0) in
    (match List.find_opt (fun o -> o.tid = target) t.threads with
     | Some { status = Exited v; _ } ->
       ret t th "join" v;
       true
     | Some _ ->
       th.status <- Blocked_join target;
       false
     | None ->
       ret t th "join" (-1L);
       true)
  | Some `Mutex_lock ->
    let addr = arg 0 in
    if Int64.equal (Memory.read_u64 t.mem addr) 0L then begin
      store_u64 t addr (Int64.of_int (th.tid + 1));
      ret t th "lock" 0L;
      true
    end
    else begin
      th.status <- Blocked_lock addr;
      false
    end
  | Some `Mutex_unlock ->
    store_u64 t (arg 0) 0L;
    ret t th "unlock" 0L;
    true
  | Some `Clock ->
    ret t th "clock" t.total_instrs;
    true
  | Some `Yield ->
    ret t th "yield" 0L;
    true

type run_result =
  | Progress
  | Idle
  | Exited_run of int64
  | Crashed of crash

let quantum = 64

(* Publish a slice's progress: [pc] and the [n] instructions fetched
   since the slice began at [instrs0]/[total0]. *)
let write_back t th pc n instrs0 total0 =
  th.pc <- pc;
  th.instrs <- instrs0 +% Int64.of_int n;
  t.total_instrs <- total0 +% Int64.of_int n

(* Interpret up to [slice] instructions of [th] and return how many ran.
   The pc and the instruction count live in locals; [write_back]
   publishes them before every syscall (so [clock] and the nondet tap see
   exact values), at the end of the slice and before any exception
   leaves (so a crash reports the faulting pc and exact counts). An
   instruction counts as soon as it is fetched, even if it then faults
   or its syscall blocks. *)
let run_slice t th slice =
  let instrs0 = th.instrs and total0 = t.total_instrs in
  let regs = th.regs and mem = t.mem in
  let cc = t.code in
  let pages = cc.cc_pages in
  let npages = Array.length pages in
  let sp = Arch.sp t.arch in
  let x86 = match t.arch with Arch.X86_64 -> true | Arch.Aarch64 -> false in
  let pc = ref th.pc and n = ref 0 in
  (try
     while
       !n < slice
       && (match th.status with Runnable -> true | _ -> false)
       && (match t.exit_code with None -> true | Some _ -> false)
     do
       let i = page_index cc !pc in
       let d =
         if i >= 0 && i < npages then
           Array.unsafe_get (Array.unsafe_get pages i) (Int64.to_int !pc land page_mask)
         else undecoded
       in
       let d = if d != undecoded then d else decode t !pc in
       incr n;
       match d.ins with
       | Nop -> pc := d.next
       | Mov (r, s) -> set regs r (get regs s); pc := d.next
       | Movi (r, v) -> set regs r v; pc := d.next
       | Movk (r, v) ->
         set regs r (Int64.logor (Int64.logand (get regs r) 0xFFFFFFFFL) (Int64.shift_left v 32));
         pc := d.next
       | Binop (op, r, a, b) -> set regs r (eval_binop op (get regs a) (get regs b)); pc := d.next
       | Binopi (op, r, a, v) -> set regs r (eval_binop op (get regs a) v); pc := d.next
       | Unop (op, r, a) -> set regs r (eval_unop op (get regs a)); pc := d.next
       | Load (r, base, off) ->
         Memory.read_u64_into mem (get regs base +% Int64.of_int off) regs (r lsl 3);
         pc := d.next
       | Store (s, base, off) ->
         store_u64 t (get regs base +% Int64.of_int off) (get regs s);
         pc := d.next
       | Load8 (r, base, off) ->
         set regs r (Int64.of_int (Memory.read_u8 mem (get regs base +% Int64.of_int off)));
         pc := d.next
       | Store8 (s, base, off) ->
         store_u8 t (get regs base +% Int64.of_int off) (Int64.to_int (get regs s) land 0xFF);
         pc := d.next
       | Load_pair (r1, r2, base, off) ->
         let b = get regs base in
         Memory.read_u64_into mem (b +% Int64.of_int off) regs (r1 lsl 3);
         Memory.read_u64_into mem (b +% Int64.of_int (off + 8)) regs (r2 lsl 3);
         pc := d.next
       | Store_pair (s1, s2, base, off) ->
         let b = get regs base in
         store_u64 t (b +% Int64.of_int off) (get regs s1);
         store_u64 t (b +% Int64.of_int (off + 8)) (get regs s2);
         pc := d.next
       | Tls_get r -> set regs r th.tls; pc := d.next
       | Call target ->
         if x86 then begin
           let s = get regs sp -% 8L in
           set regs sp s;
           store_u64 t s d.next
         end
         else set regs 30 d.next;
         pc := target
       | Call_reg r ->
         let target = get regs r in
         if x86 then begin
           let s = get regs sp -% 8L in
           set regs sp s;
           store_u64 t s d.next
         end
         else set regs 30 d.next;
         pc := target
       | Ret ->
         if x86 then begin
           let s = get regs sp in
           pc := Memory.read_u64 mem s;
           set regs sp (s +% 8L)
         end
         else pc := get regs 30
       | Jmp target -> pc := target
       | Jz (c, target) -> pc := (if Int64.equal (get regs c) 0L then target else d.next)
       | Jnz (c, target) -> pc := (if Int64.equal (get regs c) 0L then d.next else target)
       | Adjust_sp off ->
         set regs sp (get regs sp +% Int64.of_int off);
         pc := d.next
       | Trap ->
         th.status <- Trapped;
         pc := d.next
       | Syscall num ->
         write_back t th !pc !n instrs0 total0;
         if exec_syscall t th num then pc := d.next
     done
   with e ->
     write_back t th !pc !n instrs0 total0;
     raise e);
  write_back t th !pc !n instrs0 total0;
  !n

(* Retry a blocked thread's condition; promotes back to Runnable when the
   blocking syscall would now succeed (the syscall re-executes). *)
let poll_blocked t (th : thread) =
  match th.status with
  | Blocked_join target ->
    (match List.find_opt (fun o -> o.tid = target) t.threads with
     | Some { status = Exited _; _ } | None -> th.status <- Runnable
     | Some _ -> ())
  | Blocked_lock addr ->
    if Int64.equal (Memory.read_u64 t.mem addr) 0L then th.status <- Runnable
  | Runnable | Trapped | Stopped | Exited _ -> ()

let run t ~max_instrs =
  let budget = ref max_instrs in
  let result = ref None in
  while Option.is_none !result && !budget > 0 do
    let progressed = ref false in
    let threads = t.threads in
    List.iter
      (fun th ->
        if Option.is_none !result then begin
          poll_blocked t th;
          match th.status with
          | Runnable ->
            (try
               let n = run_slice t th (min quantum !budget) in
               (* scheduler decision: this thread retired n instructions
                  before the round-robin moved on — the interleaving a
                  same-ISA replay must reproduce *)
               (match t.nondet with
                | Some h when n > 0 -> h.nd_sched ~tid:th.tid ~steps:n
                | _ -> ());
               if n > 0 then progressed := true;
               budget := !budget - n
             with
             | Memory.Segfault addr ->
               let c =
                 { cr_tid = th.tid; cr_pc = th.pc;
                   cr_reason = Printf.sprintf "segfault at 0x%Lx" addr }
               in
               t.crash <- Some c;
               result := Some (Crashed c)
             | Exec_error msg ->
               let c = { cr_tid = th.tid; cr_pc = th.pc; cr_reason = msg } in
               t.crash <- Some c;
               result := Some (Crashed c));
            (match t.exit_code with
             | Some code -> result := Some (Exited_run code)
             | None -> ())
          | Blocked_join _ | Blocked_lock _ | Trapped | Stopped | Exited _ -> ()
        end)
      threads;
    match !result with
    | Some _ -> ()
    | None -> if not !progressed then result := Some Idle
  done;
  match !result with
  | Some r -> r
  | None -> Progress

let run_to_completion t ~fuel =
  let remaining = ref fuel in
  let result = ref Progress in
  let continue = ref true in
  while !continue && !remaining > 0 do
    let chunk = min 1_000_000 !remaining in
    remaining := !remaining - chunk;
    match run t ~max_instrs:chunk with
    | Progress -> result := Progress
    | (Idle | Exited_run _ | Crashed _) as r ->
      result := r;
      continue := false
  done;
  !result
