(* What the four workloads share: sizes, nodes, session configuration,
   reference runs and the digest of a migration's simulated outputs. *)

open Dapper_isa
open Dapper_machine
open Dapper_net
open Dapper_workloads
module Link = Dapper_codegen.Link
module Session = Dapper.Session

type size = Full | Tiny

(* Footprint multiplier of the cost models, as in the paper's figures. It
   changes only simulated figures, never host work. *)
let bytes_scale = 1500.0

let node_of = function Arch.X86_64 -> Node.xeon | Arch.Aarch64 -> Node.rpi
let other = function Arch.X86_64 -> Arch.Aarch64 | Arch.Aarch64 -> Arch.X86_64

(* An eager (scp) migration of [c] from [src] to the other ISA. *)
let config (c : Link.compiled) ~src =
  let dst = other src in
  { (Session.default_config ~src_bin:(Link.binary_for c src) ~dst_bin:(Link.binary_for c dst))
    with Session.cfg_src_node = node_of src; cfg_dst_node = node_of dst;
         cfg_recode_node = node_of src; cfg_bytes_scale = bytes_scale }

let compile (sp : Registry.spec) = Link.compile ~app:sp.Registry.sp_name (Lazy.force sp.Registry.sp_modul)

let programs names =
  List.map (fun n -> List.find (fun sp -> sp.Registry.sp_name = n) (Registry.all ())) names

(* The output of an un-migrated run: what every migrated run must print. *)
type reference = { ref_stdout : string; ref_exit : int64; ref_instrs : int64 }

let reference binary =
  let p = Process.load binary in
  let r = Process.run_to_completion p ~fuel:Calls.fuel in
  Calib.tick ();
  match r with
  | Process.Exited_run code ->
    { ref_stdout = Process.stdout_contents p; ref_exit = code; ref_instrs = p.Process.total_instrs }
  | _ -> failwith "reference run did not exit"

type program = { name : string; compiled : Link.compiled; ref_ : reference }

let program sp =
  let compiled = compile sp in
  { name = sp.Registry.sp_name; compiled; ref_ = reference compiled.Link.cp_x86 }

(* Migrated output check: the stdout printed before the migration, then
   the destination's, and the exit code must match the reference. *)
let check pr ~before ~after code =
  if before ^ after <> pr.ref_.ref_stdout then Error (pr.name ^ ": stdout differs from reference")
  else if code <> pr.ref_.ref_exit then Error (pr.name ^ ": exit code differs from reference")
  else Ok ()

let crash_reason (c : Process.crash) = Printf.sprintf "crashed at tid %d: %s" c.Process.cr_tid c.Process.cr_reason

let run_error = function
  | Process.Progress -> "out of fuel"
  | Process.Idle -> "no runnable thread"
  | Process.Exited_run _ -> "exited early"
  | Process.Crashed c -> crash_reason c

let digest_times acc (t : Session.phase_times) ~image_bytes =
  Acc.digest acc
    (Printf.sprintf "%h|%h|%h|%h|%d;" t.Session.t_checkpoint_ms t.Session.t_recode_ms
       t.Session.t_scp_ms t.Session.t_restore_ms image_bytes)

let digest_log acc log ~image_bytes =
  List.iter
    (fun r ->
      Acc.digest acc
        (Printf.sprintf "%s:%h:%d|" (Dapper_util.Dapper_error.stage_name r.Session.sr_stage)
           r.Session.sr_ms r.Session.sr_bytes))
    log;
  Acc.digest acc (Printf.sprintf "%d;" image_bytes)

(* A set-up workload: the number of ops whose simulated outputs and
   counters are exact per seed, and the pass that runs them (and more,
   while the run's deadline allows). *)
type run = { prefix : int; pass : Acc.t -> unit }
