(* evict-run: the paper's eviction use case end to end, closed loop, one
   client. Each round is a seeded order of every registry program; each
   job loads on x86-sim, runs a seeded 30-70% of its native instruction
   count, migrates eagerly to aarch64-sim with Session.run, runs to
   completion and is checked against an un-migrated reference run. *)

open Dapper_isa
open Dapper_machine
open Dapper_util
module Link = Dapper_codegen.Link

let tiny_programs = [ "nginx"; "blackscholes"; "streamcluster" ]

let job acc (pr : Wl.program) k =
  let c = pr.Wl.compiled in
  let p = Calls.load c.Link.cp_x86 in
  match Calls.run acc p ~max_instrs:k with
  | Process.Progress ->
    (match Calls.session_run acc (Wl.config c ~src:Arch.X86_64) p with
     | Error e -> Error (pr.Wl.name ^ ": " ^ Dapper_error.to_string e)
     | Ok o ->
       let d = o.Dapper.Session.r_process in
       (match Calls.run_to_completion acc d with
        | Process.Exited_run code ->
          Acc.digest acc (Printf.sprintf "%s|%d|%Ld|" pr.Wl.name k code);
          Wl.digest_times acc o.Dapper.Session.r_times ~image_bytes:o.Dapper.Session.r_image_bytes;
          let r =
            Wl.check pr ~before:(Process.stdout_contents p) ~after:(Process.stdout_contents d) code
          in
          if Result.is_ok r then acc.Acc.units <- acc.Acc.units +. 1.0;
          r
        | r -> Error (pr.Wl.name ^ " on aarch64: " ^ Wl.run_error r)))
  | r -> Error (pr.Wl.name ^ " before migration: " ^ Wl.run_error r)

let setup ~size ~seed =
  Dapper.Plan_cache.clear ();
  let specs = Dapper_workloads.Registry.all () in
  let specs =
    match size with
    | Wl.Full -> specs
    | Wl.Tiny -> Wl.programs tiny_programs
  in
  let programs = Array.of_list (List.map Wl.program specs) in
  let rng = Rng.create (Int64.of_int seed) in
  { Wl.prefix = Array.length programs;
    pass =
      (fun acc ->
        while Acc.more acc do
          Array.iter
            (fun i ->
              let pr = programs.(i) in
              let frac = 0.3 +. 0.4 *. Rng.float rng in
              let k = max 10_000 (int_of_float (Int64.to_float pr.Wl.ref_.Wl.ref_instrs *. frac)) in
              Acc.op ~settle:true acc (fun () -> job acc pr k))
            (Rng.permutation rng (Array.length programs))
        done) }
