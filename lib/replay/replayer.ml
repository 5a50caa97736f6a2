open Dapper_isa
open Dapper_binary
open Dapper_machine
module Monitor = Dapper.Monitor
module Unwind = Dapper.Unwind
module Dump = Dapper_criu.Dump
module Trace = Dapper_obs.Trace
module Bytebuf = Dapper_util.Bytebuf
module Derr = Dapper_util.Dapper_error

type divergence = {
  dv_point : int;
  dv_tid : int option;
  dv_kind : string;
  dv_what : string;
  dv_frames : string list;
  dv_pages : (string * int) list;
}

let divergence_to_string d =
  Printf.sprintf "first divergence at eqpoint %d%s [%s]: %s" d.dv_point
    (match d.dv_tid with None -> "" | Some tid -> Printf.sprintf " tid %d" tid)
    d.dv_kind d.dv_what

let divergence_report d =
  let b = Buffer.create 256 in
  Buffer.add_string b (divergence_to_string d);
  if d.dv_pages <> [] then begin
    Buffer.add_string b "\n  diverging pages:";
    List.iter
      (fun (kind, pn) -> Buffer.add_string b (Printf.sprintf " %s:0x%x" kind pn))
      d.dv_pages
  end;
  if d.dv_frames <> [] then begin
    Buffer.add_string b "\n  recorded frames at that anchor:";
    List.iter (fun f -> Buffer.add_string b (Printf.sprintf "\n    %s" f)) d.dv_frames
  end;
  Buffer.contents b

(* ----- shared replay machinery (also used by Shadow) ----- *)

module Internal = struct
  exception Diverge of divergence

  let vma_kind_name = function
  | Process.Vma_data -> "data"
  | Process.Vma_heap -> "heap"
  | Process.Vma_tls -> "tls"
  | Process.Vma_code -> "code"
  | Process.Vma_stack _ -> "stack"

let frames_to_strings stacks =
  List.concat_map
    (fun tf ->
      List.map
        (fun f ->
          Printf.sprintf "tid %d #%d %s ep%d" tf.Log.tf_tid f.Log.fi_depth
            f.Log.fi_func f.Log.fi_ep)
        tf.Log.tf_frames)
    stacks

(* Recorded frames at the anchor a divergence names: point [k] of the
   log if recorded, else the final snapshot (whose stacks are empty). *)
let frames_at (log : Log.t) k =
  let eq =
    if k >= 0 && k < Log.points log then Log.point log k else log.Log.lg_final
  in
  frames_to_strings eq.Log.eq_stacks

let diverge ?tid ?(frames = []) ?(pages = []) ~point ~kind fmt =
  Printf.ksprintf
    (fun what ->
      raise
        (Diverge
           { dv_point = point; dv_tid = tid; dv_kind = kind; dv_what = what;
             dv_frames = frames; dv_pages = pages }))
    fmt

(* Per-page digests a process would record right now, in [Log] form. *)
let pages_of (p : Process.t) =
  List.map
    (fun (kind, pn, digest) ->
      { Log.pd_kind = vma_kind_name kind; pd_page = pn; pd_digest = digest })
    (Process.observe_pages p)

(* Diff the recorded per-page digests against the live process:
   (kind, page) pairs present on one side only or with unequal digests. *)
let page_delta (eq : Log.eqpoint) (p : Process.t) =
  let live = pages_of p in
  let key pd = (pd.Log.pd_kind, pd.Log.pd_page) in
  let find side pd =
    List.find_opt (fun o -> key o = key pd) side
  in
  let changed side other =
    List.filter_map
      (fun pd ->
        match find other pd with
        | Some o when Int64.equal o.Log.pd_digest pd.Log.pd_digest -> None
        | _ -> Some (key pd))
      side
  in
  List.sort_uniq compare (changed eq.Log.eq_pages live @ changed live eq.Log.eq_pages)

(* Build the [Log.eqpoint] snapshot of a quiescent process: observe
   digests, stdout prefix, per-page digests and per-thread frames.
   [stacks] is false after exit (nothing left to unwind). *)
let snapshot_point ?(stacks = true) ~index (bin : Binary.t) (p : Process.t) =
  let sn = Process.observe p in
  let frames =
    if not stacks then []
    else
      match Dump.dump p with
      | Error e ->
        diverge ~point:index ~kind:"crash" "dump at recording anchor failed: %s"
          (Derr.to_string e)
      | Ok image ->
        (match
           Unwind.unwind_all image bin.Binary.bin_stackmaps
             ~anchors:bin.Binary.bin_anchors
         with
        | Error e ->
          diverge ~point:index ~kind:"crash" "unwind at recording anchor failed: %s"
            (Derr.to_string e)
        | Ok ts ->
          List.map
            (fun t ->
              { Log.tf_tid = t.Unwind.ts_tid;
                tf_frames =
                  List.mapi
                    (fun i f ->
                      { Log.fi_func = f.Unwind.fr_func.Stackmap.fm_name;
                        fi_ep = f.Unwind.fr_ep.Stackmap.ep_id;
                        fi_depth = i })
                    t.Unwind.ts_frames })
            (List.sort (fun a b -> compare a.Unwind.ts_tid b.Unwind.ts_tid) ts))
  in
  { Log.eq_index = index;
    eq_data = sn.Process.sn_data;
    eq_heap = sn.Process.sn_heap;
    eq_tls = sn.Process.sn_tls;
    eq_brk = sn.Process.sn_brk;
    eq_threads = sn.Process.sn_threads;
    eq_stdout_len = String.length sn.Process.sn_stdout;
    eq_stdout_fnv = Bytebuf.fnv64 sn.Process.sn_stdout;
    eq_stacks = frames;
    eq_pages = pages_of p }

(* Compare a live process against a recorded anchor. [prefix_len] is the
   stdout the recorded run had already produced when this process
   started with an empty buffer (0 for a from-scratch replay, the
   migration point's [eq_stdout_len] for a shadow). Divergences carry
   the anchor's own recorded frames. *)
let compare_point ~(log : Log.t) ~prefix_len (eq : Log.eqpoint) (p : Process.t) =
  let k = eq.Log.eq_index in
  let frames = frames_to_strings eq.Log.eq_stacks in
  let sn = Process.observe p in
  let check name want got =
    if not (Int64.equal want got) then
      diverge ~point:k ~kind:"snapshot" ~frames ~pages:(page_delta eq p)
        "%s digest %016Lx, log recorded %016Lx" name got want
  in
  check "data" eq.Log.eq_data sn.Process.sn_data;
  check "heap" eq.Log.eq_heap sn.Process.sn_heap;
  check "tls" eq.Log.eq_tls sn.Process.sn_tls;
  if not (Int64.equal eq.Log.eq_brk sn.Process.sn_brk) then
    diverge ~point:k ~kind:"snapshot" ~frames "brk 0x%Lx, log recorded 0x%Lx"
      sn.Process.sn_brk eq.Log.eq_brk;
  if eq.Log.eq_threads <> sn.Process.sn_threads then
    diverge ~point:k ~kind:"snapshot" ~frames "%d live threads, log recorded %d"
      sn.Process.sn_threads eq.Log.eq_threads;
  let live = prefix_len + String.length sn.Process.sn_stdout in
  if live <> eq.Log.eq_stdout_len then
    diverge ~point:k ~kind:"stdout" ~frames
      "stdout is %d bytes (%d new), log recorded %d" live
      (String.length sn.Process.sn_stdout) eq.Log.eq_stdout_len;
  let want = String.sub log.Log.lg_stdout prefix_len (live - prefix_len) in
  if not (String.equal want sn.Process.sn_stdout) then
    diverge ~point:k ~kind:"stdout" ~frames
      "stdout bytes differ from the recorded prefix (first %d bytes)" live

(* ----- the log cursor: validate / substitute / skip ----- *)

type cursor = {
  mutable cur : Log.entry list;  (** remaining entries, program order *)
  strict : bool;   (** same-ISA: scheduler slices must match too *)
  log : Log.t;
  mutable next_point : int;      (** index of the next expected anchor *)
  mutable validated : int;
  mutable substituted : int;
  mutable sched_checked : int;
}

let make_cursor ~strict (log : Log.t) =
  { cur = log.Log.lg_entries; strict; log; next_point = 0; validated = 0;
    substituted = 0; sched_checked = 0 }

(* Drop entries the current replay mode does not reproduce: scheduler
   slices on a cross-ISA replay, arrival draws always (they belong to
   the load plane, not the process). *)
let rec settle c =
  match c.cur with
  | (Log.Sched _ :: rest) when not c.strict -> c.cur <- rest; settle c
  | Log.Arrival _ :: rest -> c.cur <- rest; settle c
  | _ -> ()

let frames_here c = frames_at c.log c.next_point

let cursor_syscall c ~tid ~sys v =
  settle c;
  match c.cur with
  | Log.Syscall { sc_tid; sc_sys; sc_ret } :: rest
    when sc_tid = tid && String.equal sc_sys sys ->
    c.cur <- rest;
    if String.equal sys "clock" then begin
      c.substituted <- c.substituted + 1;
      sc_ret
    end
    else if Int64.equal sc_ret v then begin
      c.validated <- c.validated + 1;
      v
    end
    else
      diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
        "syscall %s returned %Ld, log recorded %Ld" sys v sc_ret
  | e :: _ ->
    diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
      "executed syscall %s (tid %d) -> %Ld where the log has: %s" sys tid v
      (Log.entry_to_string e)
  | [] ->
    diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
      "executed syscall %s (tid %d) past the end of the log" sys tid

let cursor_sched c ~tid ~steps =
  if c.strict then begin
    settle c;
    match c.cur with
    | Log.Sched { sd_tid; sd_steps } :: rest when sd_tid = tid && sd_steps = steps
      ->
      c.cur <- rest;
      c.sched_checked <- c.sched_checked + 1
    | e :: _ ->
      diverge ~tid ~point:c.next_point ~kind:"sched" ~frames:(frames_here c)
        "scheduler ran tid %d for %d instructions where the log has: %s" tid
        steps (Log.entry_to_string e)
    | [] ->
      diverge ~tid ~point:c.next_point ~kind:"sched" ~frames:(frames_here c)
        "scheduler slice (tid %d, %d instructions) past the end of the log" tid
        steps
  end

(* Consume the anchor for point [k] (the cursor must be positioned at
   it once mode-skipped entries are dropped). *)
let cursor_eqpoint c k =
  settle c;
  match c.cur with
  | Log.Eqpoint eq :: rest when eq.Log.eq_index = k ->
    c.cur <- rest;
    c.next_point <- k + 1;
    eq
  | e :: _ ->
    diverge ~point:k ~kind:"log" ~frames:(frames_at c.log k)
      "paused at equivalence point %d where the log has: %s" k
      (Log.entry_to_string e)
  | [] ->
    diverge ~point:k ~kind:"log" ~frames:(frames_at c.log k)
      "paused at equivalence point %d past the end of the log" k

let cursor_at_end c =
  settle c;
  match c.cur with
  | [] -> None
  | e :: _ -> Some e

let hooks_of_cursor c =
  { Process.nd_syscall = (fun ~tid ~sys v -> cursor_syscall c ~tid ~sys v);
    nd_sched = (fun ~tid ~steps -> cursor_sched c ~tid ~steps) }

(* ----- the walk both recording and replay share -----

   Drive the process with [Monitor.request_pause] only — never
   [run_to_completion], whose larger budget chunks would slice the
   scheduler differently — so the [Sched] entry stream is a pure
   function of the walk. [on_point] fires at each pause (process
   quiescent, anchor index given); the walk resumes afterwards. *)

let default_budget = 50_000_000

let walk ~budget ~on_point p =
  let rec go k =
    match Monitor.request_pause p ~budget with
    | Ok _ ->
      on_point k;
      Monitor.resume p;
      go (k + 1)
    | Error Derr.Process_exited -> Ok k
    | Error e -> Error e
  in
  go 0

let crash_check ~point (p : Process.t) =
  match p.Process.crash with
  | Some c ->
    diverge ~tid:c.Process.cr_tid ~point ~kind:"crash"
      "process crashed at pc 0x%Lx: %s" c.Process.cr_pc c.Process.cr_reason
  | None -> ()
end

open Internal

(* ----- recording ----- *)

let record ?(budget = default_budget) (bin : Binary.t) =
  Trace.with_span ~cat:"replay" "record"
    ~args:[ ("app", bin.Binary.bin_app); ("arch", Arch.name bin.Binary.bin_arch) ]
    (fun cl ->
      let p = Process.load bin in
      let entries = ref [] in
      let push e = entries := e :: !entries in
      p.Process.nondet <-
        Some
          { Process.nd_syscall =
              (fun ~tid ~sys v ->
                push (Log.Syscall { sc_tid = tid; sc_sys = sys; sc_ret = v });
                v);
            nd_sched =
              (fun ~tid ~steps ->
                push (Log.Sched { sd_tid = tid; sd_steps = steps })) };
      match
        walk ~budget p ~on_point:(fun k ->
            push (Log.Eqpoint (snapshot_point ~index:k bin p)))
      with
      | exception Diverge d -> Error (divergence_to_string d)
      | Error e -> Error (Printf.sprintf "recording walk failed: %s" (Derr.to_string e))
      | Ok k -> (
        p.Process.nondet <- None;
        match (p.Process.crash, p.Process.exit_code) with
        | Some c, _ ->
          Error
            (Printf.sprintf "recorded process crashed at pc 0x%Lx: %s"
               c.Process.cr_pc c.Process.cr_reason)
        | None, None -> Error "recorded process neither exited nor crashed"
        | None, Some exit ->
          let log =
            { Log.lg_version = Log.version;
              lg_app = bin.Binary.bin_app;
              lg_arch = bin.Binary.bin_arch;
              lg_entries = List.rev !entries;
              lg_exit = exit;
              lg_stdout = Process.stdout_contents p;
              lg_final = snapshot_point ~stacks:false ~index:k bin p }
          in
          Trace.add_arg cl "points" (string_of_int k);
          Trace.add_arg cl "entries"
            (string_of_int (List.length log.Log.lg_entries));
          Ok log))

(* ----- replay ----- *)

type outcome = {
  ro_arch : Arch.t;
  ro_points : int;
  ro_validated : int;
  ro_substituted : int;
  ro_sched_checked : int;
  ro_snapshot : Process.snapshot;
  ro_stdout : string;
  ro_exit : int64;
  ro_log : Log.t;
}

let outcome_to_string o =
  Printf.sprintf
    "replayed on %s: %d eqpoints, %d syscalls validated, %d clock substituted, \
     %d sched slices checked, exit %Ld, %dB stdout"
    (Arch.name o.ro_arch) o.ro_points o.ro_validated o.ro_substituted
    o.ro_sched_checked o.ro_exit
    (String.length o.ro_stdout)

let replay ?(budget = default_budget) ~(log : Log.t) (bin : Binary.t) =
  let strict = bin.Binary.bin_arch = log.Log.lg_arch in
  Trace.with_span ~cat:"replay" "replay"
    ~args:
      [ ("app", bin.Binary.bin_app); ("arch", Arch.name bin.Binary.bin_arch);
        ("mode", if strict then "same-isa" else "cross-isa") ]
    (fun cl ->
      let p = Process.load bin in
      let c = make_cursor ~strict log in
      (* Re-record while replaying: a faithful same-ISA replay must
         reproduce the log byte-for-byte, and the re-recording is the
         proof. The substituted clock value is recorded (it is what the
         register received), so the entry streams coincide. *)
      let entries = ref [] in
      let push e = entries := e :: !entries in
      p.Process.nondet <-
        Some
          { Process.nd_syscall =
              (fun ~tid ~sys v ->
                let out = cursor_syscall c ~tid ~sys v in
                push (Log.Syscall { sc_tid = tid; sc_sys = sys; sc_ret = out });
                out);
            nd_sched =
              (fun ~tid ~steps ->
                cursor_sched c ~tid ~steps;
                push (Log.Sched { sd_tid = tid; sd_steps = steps })) };
      match
        walk ~budget p ~on_point:(fun k ->
            let eq = cursor_eqpoint c k in
            let re = snapshot_point ~index:k bin p in
            push (Log.Eqpoint re);
            compare_point ~log ~prefix_len:0 eq p)
      with
      | exception Diverge d ->
        Trace.add_arg cl "divergence" d.dv_what;
        Error d
      | Error e ->
        Error
          { dv_point = c.next_point; dv_tid = None; dv_kind = "pause";
            dv_what = Printf.sprintf "replay walk failed: %s" (Derr.to_string e);
            dv_frames = frames_at log c.next_point; dv_pages = [] }
      | Ok points -> (
        p.Process.nondet <- None;
        match
          crash_check ~point:points p;
          (match cursor_at_end c with
          | Some e ->
            diverge ~point:points ~kind:"log" ~frames:(frames_at log points)
              "replay finished with unconsumed log entries, next: %s"
              (Log.entry_to_string e)
          | None -> ());
          let exit =
            match p.Process.exit_code with
            | Some e -> e
            | None ->
              diverge ~point:points ~kind:"exit"
                "replay finished without an exit code"
          in
          if not (Int64.equal exit log.Log.lg_exit) then
            diverge ~point:points ~kind:"exit" "exit code %Ld, log recorded %Ld"
              exit log.Log.lg_exit;
          let final = snapshot_point ~stacks:false ~index:points bin p in
          compare_point ~log ~prefix_len:0 log.Log.lg_final p;
          if points <> Log.points log then
            diverge ~point:points ~kind:"log"
              "replay saw %d equivalence points, log recorded %d" points
              (Log.points log);
          (exit, final)
        with
        | exception Diverge d ->
          Trace.add_arg cl "divergence" d.dv_what;
          Error d
        | exit, final ->
          Trace.add_arg cl "points" (string_of_int points);
          Ok
            { ro_arch = bin.Binary.bin_arch;
              ro_points = points;
              ro_validated = c.validated;
              ro_substituted = c.substituted;
              ro_sched_checked = c.sched_checked;
              ro_snapshot = Process.observe p;
              ro_stdout = Process.stdout_contents p;
              ro_exit = exit;
              ro_log =
                { Log.lg_version = Log.version;
                  lg_app = bin.Binary.bin_app;
                  lg_arch = bin.Binary.bin_arch;
                  lg_entries = List.rev !entries;
                  lg_exit = exit;
                  lg_stdout = Process.stdout_contents p;
                  lg_final = final } }))
