open Dapper_isa
open Dapper_binary
open Dapper_machine
module Link = Dapper_codegen.Link
module Session = Dapper.Session
module Monitor = Dapper.Monitor
module Unwind = Dapper.Unwind
module Dump = Dapper_criu.Dump
module Images = Dapper_criu.Images
module Rewrite = Dapper.Rewrite
module Derr = Dapper_util.Dapper_error

type report = {
  rp_app : string;
  rp_src : Arch.t;
  rp_dst : Arch.t;
  rp_points : int;
  rp_complete : bool;
  rp_migrations : int;
  rp_snapshots : int;
  rp_values : int;
}

type failure = {
  fl_app : string;
  fl_src : Arch.t;
  fl_dst : Arch.t;
  fl_point : int;
  fl_what : string;
}

let report_to_string r =
  Printf.sprintf "%s %s->%s: %d points%s, %d migrations, %d snapshots, %d values"
    r.rp_app (Arch.name r.rp_src) (Arch.name r.rp_dst) r.rp_points
    (if r.rp_complete then "" else " (capped)")
    r.rp_migrations r.rp_snapshots r.rp_values

let failure_to_string f =
  Printf.sprintf "%s %s->%s at point %d: %s" f.fl_app (Arch.name f.fl_src)
    (Arch.name f.fl_dst) f.fl_point f.fl_what

(* Internal failure carrier: every check raises [Fail (point, what)] and
   [run] converts it to a [failure] at its boundary. *)
exception Fail of int * string

let fail point fmt = Printf.ksprintf (fun s -> raise (Fail (point, s))) fmt

(* ----- native runs ----- *)

let run_native ~fuel arch (c : Link.compiled) =
  let p = Process.load (Link.binary_for c arch) in
  match Process.run_to_completion p ~fuel with
  | Process.Exited_run code -> (code, Process.stdout_contents p)
  | Process.Crashed cr ->
    fail (-1) "native %s crashed at 0x%Lx: %s" (Arch.name arch) cr.cr_pc cr.cr_reason
  | Process.Idle -> fail (-1) "native %s deadlocked" (Arch.name arch)
  | Process.Progress -> fail (-1) "native %s exceeded %d instruction fuel" (Arch.name arch) fuel

(* ----- pause-point stepping ----- *)

(* Advance a process to its next dynamic equivalence point. [`Point]
   leaves every thread parked at the point; [`Exited] means the program
   ran to completion instead. *)
let next_point ~point ~budget p =
  match Monitor.request_pause p ~budget with
  | Ok _ -> `Point
  | Error Derr.Process_exited -> `Exited
  | Error e -> fail point "pause failed: %s" (Derr.to_string e)

let advance_to_point p ~budget k =
  let rec go j =
    match Monitor.request_pause p ~budget with
    | Error Derr.Process_exited -> false
    | Error e -> raise (Fail (j, "pause failed: " ^ Derr.to_string e))
    | Ok _ -> if j = k then true else (Monitor.resume p; go (j + 1))
  in
  go 0

(* ----- pointwise comparisons ----- *)

(* Compare the unwound stacks of the two paused twins: same threads,
   same frames (function, equivalence point, at-call flag), and
   byte-identical live values per cross-ISA key. Pointer-typed values
   are compared for presence only: stack addresses legally differ
   across ISAs (frame geometry) until the rewriter translates them. *)
let compare_stacks ~point ~values sa sb =
  let by_tid = List.sort (fun a b -> compare a.Unwind.ts_tid b.Unwind.ts_tid) in
  let sa = by_tid sa and sb = by_tid sb in
  if List.length sa <> List.length sb then
    fail point "thread counts differ (%d vs %d)" (List.length sa) (List.length sb);
  List.iter2
    (fun (ta : Unwind.thread_stack) (tb : Unwind.thread_stack) ->
      if ta.ts_tid <> tb.ts_tid then fail point "thread ids differ";
      if List.length ta.ts_frames <> List.length tb.ts_frames then
        fail point "thread %d frame counts differ (%d vs %d)" ta.ts_tid
          (List.length ta.ts_frames) (List.length tb.ts_frames);
      List.iteri
        (fun depth ((fa : Unwind.frame), (fb : Unwind.frame)) ->
          let where = Printf.sprintf "thread %d frame %d" ta.ts_tid depth in
          if fa.fr_func.Stackmap.fm_name <> fb.fr_func.Stackmap.fm_name then
            fail point "%s: functions differ (%s vs %s)" where fa.fr_func.Stackmap.fm_name
              fb.fr_func.Stackmap.fm_name;
          if fa.fr_ep.Stackmap.ep_id <> fb.fr_ep.Stackmap.ep_id then
            fail point "%s (%s): eqpoint ids differ (%d vs %d)" where
              fa.fr_func.Stackmap.fm_name fa.fr_ep.Stackmap.ep_id fb.fr_ep.Stackmap.ep_id;
          if fa.fr_at_call <> fb.fr_at_call then
            fail point "%s (%s): at-call flags differ" where fa.fr_func.Stackmap.fm_name;
          let sort = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) in
          let va = sort fa.fr_values and vb = sort fb.fr_values in
          if List.map fst va <> List.map fst vb then
            fail point "%s (%s ep%d): live keys differ" where fa.fr_func.Stackmap.fm_name
              fa.fr_ep.Stackmap.ep_id;
          let record_of key =
            List.find_opt
              (fun (lv : Stackmap.live_value) -> lv.lv_key = key)
              fa.fr_ep.Stackmap.ep_live
          in
          let comparable key =
            (* scalar integer/float temporaries only. Pointer values
               legally differ across ISAs (frame geometry), and named
               slots are recorded at every equivalence point whether or
               not they have been written yet, so a slot may hold stack
               residue — which is ISA-specific. Temporaries come from
               the liveness analysis and are always defined values. *)
            match (key, record_of key) with
            | ( Stackmap.Temp _,
                Some { Stackmap.lv_ty = Stackmap.Lv_i64 | Stackmap.Lv_f64; lv_size = 8; _ } )
              ->
              true
            | _ -> false
          in
          List.iter2
            (fun (key, bytes_a) (_, bytes_b) ->
              if comparable key then begin
                incr values;
                if not (String.equal bytes_a bytes_b) then
                  fail point "%s (%s ep%d): live value %s differs across ISAs" where
                    fa.fr_func.Stackmap.fm_name fa.fr_ep.Stackmap.ep_id
                    (match key with
                     | Stackmap.Slot s -> Printf.sprintf "slot %d" s
                     | Stackmap.Temp t -> Printf.sprintf "temp %d" t)
              end)
            va vb)
        (List.combine ta.ts_frames tb.ts_frames))
    sa sb

let unwound ~point (bin : Binary.t) p =
  match Dump.dump p with
  | Error e -> fail point "dump for deep compare failed: %s" (Derr.to_string e)
  | Ok image ->
    (match
       Unwind.unwind_all image bin.Binary.bin_stackmaps ~anchors:bin.Binary.bin_anchors
     with
     | Error e -> fail point "unwind for deep compare failed: %s" (Derr.to_string e)
     | Ok stacks -> stacks)

(* State equivalence between two paused twins (or a twin and a restored
   process): ISA-independent digests plus output-so-far. [prefix] is
   output the reference process printed before the other one started
   (migrated twins restart with an empty stdout buffer). *)
let compare_snapshots ~point ~snapshots ~what ?(prefix = "") sa sb =
  incr snapshots;
  if not (Process.state_equal sa sb) then
    fail point "%s: state snapshots differ (%s vs %s)" what
      (Process.snapshot_to_string sa) (Process.snapshot_to_string sb);
  if not (String.equal sa.Process.sn_stdout (prefix ^ sb.Process.sn_stdout)) then
    fail point "%s: stdout differs (%S vs %S)" what sa.Process.sn_stdout
      (prefix ^ sb.Process.sn_stdout)

(* ----- the oracle ----- *)

let run ?(fuel = 50_000_000) ?(budget = 50_000_000) ?(max_points = max_int) ~src ~dst
    (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let snapshots = ref 0 and values = ref 0 and migrations = ref 0 in
  let go () =
    (* phase 1: native differential *)
    let code_s, out_s = run_native ~fuel src c in
    let code_d, out_d = run_native ~fuel dst c in
    if not (Int64.equal code_s code_d) then
      fail (-1) "native exit codes differ (%Ld vs %Ld)" code_s code_d;
    if not (String.equal out_s out_d) then
      fail (-1) "native outputs differ (%S vs %S)" out_s out_d;
    (* phase 2: lockstep walk with pointwise deep comparison, recording
       the source twin's snapshot at every point for phase 3 *)
    let pa = Process.load src_bin and pb = Process.load dst_bin in
    let snaps = ref [] in
    let rec walk k =
      if k >= max_points then (k, false)
      else
        match (next_point ~point:k ~budget pa, next_point ~point:k ~budget pb) with
        | `Exited, `Exited -> (k, true)
        | `Point, `Exited -> fail k "twin divergence: %s exited early" (Arch.name dst)
        | `Exited, `Point -> fail k "twin divergence: %s exited early" (Arch.name src)
        | `Point, `Point ->
          let sa = Process.observe pa and sb = Process.observe pb in
          compare_snapshots ~point:k ~snapshots ~what:"lockstep twins" sa sb;
          compare_stacks ~point:k ~values (unwound ~point:k src_bin pa)
            (unwound ~point:k dst_bin pb);
          snaps := sa :: !snaps;
          Monitor.resume pa;
          Monitor.resume pb;
          walk (k + 1)
    in
    let points, complete = walk 0 in
    let snaps = Array.of_list (List.rev !snaps) in
    (* phase 3: force-migrate a fresh source twin at every point, then
       require pointwise equivalence at every later point and an
       end-of-execution result equal to the native run *)
    for k = 0 to points - 1 do
      let p = Process.load src_bin in
      if not (advance_to_point p ~budget k) then
        fail k "source exited before reaching point %d on replay" k;
      let cfg =
        { (Session.default_config ~src_bin ~dst_bin) with Session.cfg_pause_budget = budget }
      in
      let step what = function
        | Ok s -> s
        | Error e -> fail k "%s failed: %s" what (Derr.to_string e)
      in
      (* the source is already parked at point k, so the session's own
         pause finds every thread stopped there *)
      let s = Session.start cfg p in
      let s = step "pause" (Session.pause s) in
      let snap_src = Process.observe p in
      let s = step "dump" (Session.dump s) in
      let s = step "recode" (Session.recode s) in
      let s = step "transfer" (Session.transfer s) in
      let s = step "restore" (Session.restore s) in
      let s = step "commit" (Session.commit s) in
      let q = (Session.finish s).Session.r_process in
      incr migrations;
      let prefix = snap_src.Process.sn_stdout in
      compare_snapshots ~point:k ~snapshots ~what:"restored vs paused source" ~prefix
        snap_src (Process.observe q);
      (* walk the restored twin through the remaining recorded points *)
      let rec chase j =
        if j >= points then ()
        else
          match next_point ~point:j ~budget q with
          | `Exited -> fail j "restored twin exited before point %d" j
          | `Point ->
            compare_snapshots ~point:j ~snapshots
              ~what:(Printf.sprintf "restored twin (migrated at %d)" k)
              ~prefix snaps.(j) (Process.observe q);
            Monitor.resume q;
            chase (j + 1)
      in
      chase (k + 1);
      (match Process.run_to_completion q ~fuel with
       | Process.Exited_run code ->
         if not (Int64.equal code code_s) then
           fail k "restored twin exit code %Ld <> native %Ld" code code_s;
         let out = prefix ^ Process.stdout_contents q in
         if not (String.equal out out_s) then
           fail k "restored twin output %S <> native %S" out out_s
       | Process.Crashed cr ->
         fail k "restored twin crashed at 0x%Lx: %s" cr.cr_pc cr.cr_reason
       | Process.Idle -> fail k "restored twin deadlocked"
       | Process.Progress -> fail k "restored twin exceeded fuel")
    done;
    { rp_app = c.Link.cp_app;
      rp_src = src;
      rp_dst = dst;
      rp_points = points;
      rp_complete = complete;
      rp_migrations = !migrations;
      rp_snapshots = !snapshots;
      rp_values = !values }
  in
  match go () with
  | report -> Ok report
  | exception Fail (point, what) ->
    Error { fl_app = c.Link.cp_app; fl_src = src; fl_dst = dst; fl_point = point; fl_what = what }

(* ----- fast-path byte equivalence ----- *)

type fastpath_report = {
  fp_app : string;
  fp_points : int;
  fp_saved_transfer_ms : float;
}

let fastpath_report_to_string r =
  Printf.sprintf
    "%s fastpaths: %d points, transfer saved %.3f ms" r.fp_app r.fp_points
    r.fp_saved_transfer_ms

(* Drive one full session, capturing the exact bytes that crossed the
   wire: the transferred image re-serialized to its named files. Every
   fast path must reproduce these bytes exactly. *)
let run_capturing ~point cfg p =
  let step what = function
    | Ok s -> s
    | Error e -> fail point "%s failed: %s" what (Derr.to_string e)
  in
  let s = Session.start cfg p in
  let s = step "pause" (Session.pause s) in
  let s = step "dump" (Session.dump s) in
  let s = step "recode" (Session.recode s) in
  let s = step "transfer" (Session.transfer s) in
  let files = List.sort compare (Images.to_files s.Session.s_state.Session.sx_image) in
  let s = step "restore" (Session.restore s) in
  let s = step "commit" (Session.commit s) in
  (files, Session.finish s)

let check_fastpaths ?(budget = 50_000_000) ?(points = 3) ~src ~dst
    (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let base_cfg =
    { (Session.default_config ~src_bin ~dst_bin) with Session.cfg_pause_budget = budget }
  in
  let checked = ref 0 in
  let saved = ref 0.0 in
  let go () =
    let k = ref 0 in
    let continue_ = ref true in
    while !continue_ && !checked < points do
      let parked () =
        let p = Process.load src_bin in
        if advance_to_point p ~budget !k then Some p else None
      in
      (match parked () with
       | None -> continue_ := false
       | Some p ->
         let base_files, base = run_capturing ~point:!k base_cfg p in
         let variant name cfg =
           match parked () with
           | None -> fail !k "source no longer reaches point %d" !k
           | Some p ->
             let files, r = run_capturing ~point:!k cfg p in
             if files <> base_files then
               fail !k "%s image differs from the sequential pipeline" name;
             r
         in
         (* overlap: pipelined transfer may only shave the transfer cost *)
         let pipe =
           variant "pipelined"
             { base_cfg with Session.cfg_pipeline = true; cfg_chunk_bytes = 4096 }
         in
         let base_scp = base.Session.r_times.Session.t_scp_ms in
         let pipe_scp = pipe.Session.r_times.Session.t_scp_ms in
         if pipe_scp > base_scp +. 1e-9 then
           fail !k "pipelined transfer (%.6f ms) costs more than sequential (%.6f ms)"
             pipe_scp base_scp;
         saved := !saved +. (base_scp -. pipe_scp);
         (* parallelism: the multi-worker cost model must not change bytes *)
         let _workers =
           variant "multi-worker" { base_cfg with Session.cfg_recode_workers = 4 }
         in
         (* both fast paths composed *)
         let _all =
           variant "combined"
             { base_cfg with Session.cfg_pipeline = true; cfg_chunk_bytes = 4096;
               cfg_recode_workers = 4 }
         in
         incr checked;
         k := !k + 2)
    done;
    { fp_app = c.Link.cp_app;
      fp_points = !checked;
      fp_saved_transfer_ms = !saved }
  in
  match go () with
  | r -> Ok r
  | exception Fail (point, what) ->
    Error { fl_app = c.Link.cp_app; fl_src = src; fl_dst = dst; fl_point = point; fl_what = what }

(* ----- shadow replay: divergence-localizing verification ----- *)

module Replayer = Dapper_replay.Replayer
module Shadow = Dapper_replay.Shadow
module Rlog = Dapper_replay.Log
module Restore = Dapper_criu.Restore
module Layout = Dapper_binary.Layout

type shadow_report = {
  sr_app : string;
  sr_src : Arch.t;
  sr_dst : Arch.t;
  sr_points : int;
  sr_clean : int;
  sr_corrupted : int;
  sr_divergences : string list;
}

let shadow_report_to_string r =
  Printf.sprintf
    "%s %s->%s shadows: %d migration points, %d clean matches, %d corruptions \
     localized"
    r.sr_app (Arch.name r.sr_src) (Arch.name r.sr_dst) r.sr_points r.sr_clean
    r.sr_corrupted

(* Pick an in-dump data/heap/tls page of [image] to corrupt, steering
   clear of the page holding the transformation flag (its word is masked
   out of observation, so a flip there could legally go unseen). *)
let corruption_target (image : Images.image_set) (dst_bin : Binary.t) =
  let flag_page =
    Layout.page_of_addr dst_bin.Binary.bin_anchors.Binary.a_flag
  in
  let kind_of pn =
    List.find_map
      (fun (v : Images.vma) ->
        let s = Layout.page_of_addr v.Images.v_start in
        if pn >= s && pn < s + v.Images.v_npages then Some v.Images.v_kind
        else None)
      image.Images.is_mm.Images.mm_vmas
  in
  let dumped =
    List.concat_map
      (fun (pm : Images.pagemap_entry) ->
        if not pm.Images.pm_in_dump then []
        else
          List.init pm.Images.pm_npages (fun i ->
              Layout.page_of_addr pm.Images.pm_vaddr + i))
      image.Images.is_pagemap
  in
  let observable pn =
    pn <> flag_page
    &&
    match kind_of pn with
    | Some (Images.Vk_data | Images.Vk_heap | Images.Vk_tls) -> true
    | _ -> false
  in
  List.find_opt observable dumped

let check_shadow ?(budget = 50_000_000) ?(max_points = 3) ?(corrupt = true) ~src
    ~dst (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let go () =
    (* the reference recording: one complete source-ISA run *)
    let log =
      match Replayer.record ~budget src_bin with
      | Ok log -> log
      | Error e -> fail (-1) "recording failed: %s" e
    in
    if Rlog.points log = 0 then fail (-1) "program reaches no equivalence point";
    let points = min max_points (Rlog.points log) in
    let clean = ref 0 and corrupted = ref 0 and reports = ref [] in
    let parked k =
      let p = Process.load src_bin in
      if not (advance_to_point p ~budget k) then
        fail k "source exited before reaching point %d on replay" k;
      p
    in
    let step k what = function
      | Ok s -> s
      | Error e -> fail k "%s failed: %s" what (Derr.to_string e)
    in
    for k = 0 to points - 1 do
      (* a clean migration's destination must shadow-replay to MATCH *)
      let p = parked k in
      let cfg =
        { (Session.default_config ~src_bin ~dst_bin) with
          Session.cfg_pause_budget = budget }
      in
      let s = Session.start cfg p in
      let s = step k "pause" (Session.pause s) in
      let s = step k "dump" (Session.dump s) in
      let s = step k "recode" (Session.recode s) in
      let s = step k "transfer" (Session.transfer s) in
      let s = step k "restore" (Session.restore s) in
      let s = step k "commit" (Session.commit s) in
      let q = (Session.finish s).Session.r_process in
      (match (Shadow.check ~budget ~log ~from_point:k q).Shadow.sh_verdict with
      | Shadow.Match -> incr clean
      | Shadow.Diverged d ->
        fail k "clean migration's shadow diverged: %s"
          (Replayer.divergence_to_string d));
      if corrupt then begin
        (* corrupt one observable page of the rewritten image, restore it
           outside the session (whose commit check would refuse it), and
           require the shadow to localize the damage to this anchor and
           page *)
        let p = parked k in
        let image = step k "dump" (Dump.dump p) in
        let rewritten, _ =
          step k "rewrite" (Rewrite.rewrite image ~src:src_bin ~dst:dst_bin)
        in
        let pn =
          match corruption_target rewritten dst_bin with
          | Some pn -> pn
          | None -> fail k "rewritten image has no observable page to corrupt"
        in
        let contents =
          match Images.read_page rewritten pn with
          | Some s -> Bytes.of_string s
          | None -> fail k "page 0x%x vanished from the rewritten image" pn
        in
        let off = 64 in
        Bytes.set contents off
          (Char.chr (Char.code (Bytes.get contents off) lxor 0x5a));
        let evil = Images.write_page rewritten pn (Bytes.to_string contents) in
        let q = step k "restore" (Restore.restore evil dst_bin) in
        (match (Shadow.check ~budget ~log ~from_point:k q) with
        | { Shadow.sh_verdict = Shadow.Match; _ } ->
          fail k "corrupted restore went undetected by the shadow"
        | { Shadow.sh_verdict = Shadow.Diverged d; _ } as rep ->
          if d.Replayer.dv_point <> k then
            fail k "corruption injected at point %d but localized at %d" k
              d.Replayer.dv_point;
          if not (List.exists (fun (_, p') -> p' = pn) d.Replayer.dv_pages) then
            fail k "divergence report does not name the corrupted page 0x%x" pn;
          incr corrupted;
          reports := Shadow.report_to_string rep :: !reports)
      end
    done;
    { sr_app = c.Link.cp_app;
      sr_src = src;
      sr_dst = dst;
      sr_points = points;
      sr_clean = !clean;
      sr_corrupted = !corrupted;
      sr_divergences = List.rev !reports }
  in
  match go () with
  | r -> Ok r
  | exception Fail (point, what) ->
    Error
      { fl_app = c.Link.cp_app; fl_src = src; fl_dst = dst; fl_point = point;
        fl_what = what }
