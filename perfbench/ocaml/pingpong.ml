(* migrate-pingpong: the migration pipeline itself, closed loop, one
   client. A pool of warm processes of different image sizes hops
   x86 -> arm -> x86, every member once per round in a seeded order;
   before each hop the member runs a short guest quantum, and the six
   stages are driven one call at a time. A process that exits is checked
   against its reference run and reloaded. *)

open Dapper_machine
open Dapper_util
module Link = Dapper_codegen.Link
module Session = Dapper.Session

let full_pool =
  [ "npb-is.A"; "redis"; "blackscholes"; "swaptions"; "streamcluster"; "npb-ep.A"; "nginx" ]

let tiny_pool = [ "blackscholes"; "npb-ep.A"; "nginx" ]

type member = {
  prog : Wl.program;
  mutable proc : Process.t;
  mutable arch : Dapper_isa.Arch.t;
  out : Buffer.t;  (* stdout of the earlier hops since the last (re)load *)
}

let reload m =
  m.proc <- Calls.load (Link.binary_for m.prog.Wl.compiled m.arch);
  Buffer.clear m.out

(* A member that exited is checked against its reference on the stdout
   of all its hops, then reloaded. *)
let finished m code =
  let checked =
    Wl.check m.prog ~before:(Buffer.contents m.out) ~after:(Process.stdout_contents m.proc) code
  in
  reload m;
  checked

(* Run a quantum. After an exit the quantum runs on the fresh process. *)
let quantum acc m instrs =
  match Calls.run acc m.proc ~max_instrs:instrs with
  | Process.Progress -> Ok ()
  | Process.Exited_run code ->
    let checked = finished m code in
    (match Calls.run acc m.proc ~max_instrs:instrs with
     | Process.Progress -> checked
     | r -> Error (m.prog.Wl.name ^ " after reload: " ^ Wl.run_error r))
  | r ->
    reload m;
    Error (m.prog.Wl.name ^ ": " ^ Wl.run_error r)

(* One hop, pause to commit. The stages roll the source back on error.
   A pause whose drain runs the member to its exit ends the member's
   life as an exit in the quantum does: no migration, checked, reloaded. *)
let hop acc m =
  let s0 = Session.start (Wl.config m.prog.Wl.compiled ~src:m.arch) m.proc in
  let ( let* ) = Result.bind in
  let start = Calib.mark () in
  let r =
    let* s = Calls.pause s0 in
    let* s = Calls.dump acc s in
    let* s = Calls.recode s in
    let* s = Calls.transfer s in
    let* s = Calls.restore s in
    Calls.commit acc s
  in
  let ns = Calib.since start in
  match (r, m.proc.Process.exit_code) with
  | Error Dapper_error.Process_exited, Some code -> finished m code
  | Error e, _ -> Error (m.prog.Wl.name ^ ": " ^ Dapper_error.to_string e)
  | Ok c, _ ->
    Acc.latency acc ns;
    acc.Acc.units <- acc.Acc.units +. 1.0;
    Acc.digest acc m.prog.Wl.name;
    Wl.digest_log acc (Session.stage_log c) ~image_bytes:c.Session.s_state.Session.sm_image_bytes;
    Buffer.add_string m.out (Process.stdout_contents m.proc);
    m.proc <- c.Session.s_state.Session.sm_process;
    m.arch <- Wl.other m.arch;
    Ok ()

(* Set-up hop: fills the plan cache and stack-map indexes for one
   direction. *)
let warm_hop m =
  match Session.run (Wl.config m.prog.Wl.compiled ~src:m.arch) m.proc with
  | Ok c ->
    Buffer.add_string m.out (Process.stdout_contents m.proc);
    m.proc <- c.Session.s_state.Session.sm_process;
    m.arch <- Wl.other m.arch
  | Error e -> failwith (m.prog.Wl.name ^ " warm-up: " ^ Dapper_error.to_string e)

let setup ~size ~seed =
  Dapper.Plan_cache.clear ();
  let rng = Rng.create (Int64.of_int seed) in
  let names = match size with Wl.Full -> full_pool | Wl.Tiny -> tiny_pool in
  let pool =
    Array.of_list
      (List.map
         (fun sp ->
           let prog = Wl.program sp in
           (* The same warm point for every seed: a member's migration
              cost moves with it, and the median hop falls among the
              PARSEC members. *)
           let warm = max 10_000 (int_of_float (Int64.to_float prog.Wl.ref_.Wl.ref_instrs *. 0.15)) in
           let proc = Process.load prog.Wl.compiled.Link.cp_x86 in
           (match Process.run proc ~max_instrs:warm with
            | Process.Progress -> ()
            | r -> failwith (prog.Wl.name ^ " warm-up: " ^ Wl.run_error r));
           let m = { prog; proc; arch = Dapper_isa.Arch.X86_64; out = Buffer.create 64 } in
           warm_hop m;
           warm_hop m;
           Calib.tick ();
           m)
         (Wl.programs names))
  in
  (* At least 1000 hops, so the p99 has ten samples beyond it. *)
  let rounds = match size with Wl.Full -> 143 | Wl.Tiny -> 7 in
  { Wl.prefix = rounds * Array.length pool;
    pass =
      (fun acc ->
        while Acc.more acc do
          Array.iter
            (fun i ->
              let m = pool.(i) in
              let instrs = 2_000 + Rng.int rng 6_001 in
              Acc.op acc (fun () -> Result.bind (quantum acc m instrs) (fun () -> hop acc m)))
            (Rng.permutation rng (Array.length pool))
        done) }
