(* crit_tool: the CRIT image tool - runs a benchmark to a live state,
   checkpoints it, and decodes/show/rewrites the image set, mirroring
   `crit decode|encode|x` workflows. *)

open Cmdliner
open Dapper_isa
open Dapper_machine
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let bench_arg =
  Arg.(value & pos 0 string "npb-cg.A" & info [] ~docv:"BENCHMARK"
         ~doc:"Registry benchmark to checkpoint.")

let warm_arg =
  Arg.(value & opt int 500_000 & info [ "warmup" ] ~docv:"N"
         ~doc:"Instructions to run before checkpointing.")

let recode_flag =
  Arg.(value & flag & info [ "recode" ]
         ~doc:"Also rewrite the image for the other architecture and show the new cores.")

let run bench warm recode =
  let sp = Registry.find bench in
  let c = Registry.compiled sp in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:warm);
  (match Monitor.request_pause p ~budget:50_000_000 with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  print_endline (Dapper_criu.Crit.show image);
  if recode then begin
    let image', stats =
      Dapper_util.Dapper_error.ok_exn
        (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
    in
    Printf.printf
      "\n--- rewritten for %s: %d frames, %d values, %d pointers translated ---\n"
      (Arch.name Arch.Aarch64) stats.Rewrite.st_frames stats.Rewrite.st_values
      stats.Rewrite.st_ptrs_translated;
    List.iter
      (fun (name, bytes) ->
        if name <> "pages-1.img" then begin
          Printf.printf "=== %s ===\n" name;
          print_endline (Dapper_util.Json.to_string (Dapper_criu.Crit.decode_file name bytes))
        end)
      (Dapper_criu.Images.to_files image')
  end

let cmd =
  Cmd.v
    (Cmd.info "crit" ~doc:"Checkpoint a benchmark and decode its CRIU images")
    Term.(const run $ bench_arg $ warm_arg $ recode_flag)

let () = exit (Cmd.eval cmd)
