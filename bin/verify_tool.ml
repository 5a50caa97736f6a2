(* verify_tool: the conformance harness CLI - static stack-map
   verification, differential migration oracle runs over the example and
   generated corpora, and the mutation (corrupted stack map) checks.

     verify static            check every registry + example binary
     verify mutations         corrupted stack maps must be rejected
     verify oracle NAME       oracle sweep for one program
     verify corpus            full every-point sweep, both directions
     verify fuzz              seeded generated corpus, both directions
     verify conformance       everything above; non-zero exit on failure *)

open Cmdliner
open Dapper_isa
open Dapper_workloads
module Link = Dapper_codegen.Link
module Static = Dapper_verify.Static
module Oracle = Dapper_verify.Oracle
module Gen = Dapper_verify.Gen
module Corpus = Dapper_verify.Corpus

let directions = [ (Arch.X86_64, Arch.Aarch64); (Arch.Aarch64, Arch.X86_64) ]

let seed_programs () =
  List.map (fun sp -> (sp.Registry.sp_name, Registry.compiled sp)) (Registry.all ())

(* ----- static verification ----- *)

let static_one (name, c) =
  match Static.check_compiled c with
  | [] ->
    Printf.printf "static %-16s ok\n%!" name;
    true
  | viols ->
    List.iter
      (fun v -> Printf.printf "static %-16s VIOLATION %s\n%!" name (Static.violation_to_string v))
      viols;
    false

let run_static () =
  let ok =
    List.for_all static_one (seed_programs () @ Corpus.all ())
  in
  if not ok then prerr_endline "static verification FAILED";
  ok

(* ----- mutation checks ----- *)

let run_mutations () =
  let base = Corpus.all () @ [ ("nginx", Registry.compiled (Registry.find "nginx")) ] in
  (* corrupt the richest example + one registry binary *)
  let targets = [ List.assoc "mini-sieve" base; List.assoc "nginx" base ] in
  let ok = ref true in
  let total = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun (name, corrupted) ->
          incr total;
          match Static.run corrupted with
          | Error (Dapper_util.Dapper_error.Verify_failed msg) ->
            Printf.printf "mutation %-20s rejected: %s\n%!" name msg
          | Ok () ->
            ok := false;
            Printf.printf "mutation %-20s NOT REJECTED\n%!" name
          | Error e ->
            ok := false;
            Printf.printf "mutation %-20s wrong error: %s\n%!" name
              (Dapper_util.Dapper_error.to_string e))
        (Static.corruptions c))
    targets;
  Printf.printf "mutations: %d corrupted variants checked\n%!" !total;
  if !total < 5 then begin
    ok := false;
    prerr_endline "mutation corpus too small (< 5 corruptions)"
  end;
  !ok

(* ----- oracle runs ----- *)

let oracle_one ?max_points (name, c) =
  List.for_all
    (fun (src, dst) ->
      match Oracle.run ?max_points ~src ~dst c with
      | Ok r ->
        Printf.printf "oracle %-16s %s\n%!" name (Oracle.report_to_string r);
        true
      | Error f ->
        Printf.printf "oracle %-16s FAILED %s\n%!" name (Oracle.failure_to_string f);
        false)
    directions

let resolve name =
  match Corpus.find name with
  | Some c -> Some (name, c)
  | None ->
    (match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
     | Some seed when String.length name > 3 && String.sub name 0 3 = "gen" ->
       Some (name, Gen.compile seed)
     | _ | (exception Invalid_argument _) ->
       (match Registry.find name with
        | sp -> Some (name, Registry.compiled sp)
        | exception (Not_found | Invalid_argument _) -> None))

let run_oracle name max_points =
  match resolve name with
  | None ->
    Printf.eprintf
      "verify: unknown program %S (expected an example-corpus name, gen<SEED>, \
       or a registry benchmark)\n%!"
      name;
    1
  | Some p -> if oracle_one ?max_points p then 0 else 1

let run_corpus () = List.for_all (fun p -> oracle_one p) (Corpus.all ())

let run_fuzz count max_points =
  let failed = ref 0 in
  for seed = 1 to count do
    let c = Gen.compile seed in
    List.iter
      (fun (src, dst) ->
        match Oracle.run ~max_points ~src ~dst c with
        | Ok _ -> ()
        | Error f ->
          incr failed;
          Printf.printf "fuzz seed %d FAILED %s\n%!" seed (Oracle.failure_to_string f))
      directions
  done;
  Printf.printf "fuzz: %d seeds x %d directions, %d failures\n%!" count
    (List.length directions) !failed;
  !failed = 0

(* ----- fast-path byte equivalence ----- *)

let run_fastpath points =
  let ok = ref true in
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (src, dst) ->
          match Oracle.check_fastpaths ~points ~src ~dst c with
          | Ok r ->
            Printf.printf "fastpath %-16s %s->%s %s\n%!" name (Arch.name src)
              (Arch.name dst)
              (Oracle.fastpath_report_to_string r)
          | Error f ->
            ok := false;
            Printf.printf "fastpath %-16s FAILED %s\n%!" name
              (Oracle.failure_to_string f))
        directions)
    (Corpus.all ());
  !ok

(* ----- chaos runs ----- *)

let run_chaos seeds prob verbose pipeline mechanism =
  let spec = Dapper_util.Fault.uniform prob in
  let progress r =
    if verbose then print_endline (Dapper_verify.Chaos.run_report_to_string r)
  in
  let tag =
    (if pipeline then " (pipelined)" else "")
    ^ match mechanism with
      | None -> ""
      | Some m -> " [" ^ Dapper_traffic.Budget.mechanism_name m ^ "]"
  in
  match Dapper_verify.Chaos.sweep ~pipeline ?mechanism ~progress ~spec ~seeds () with
  | Ok s ->
    Printf.printf "chaos p=%g%s: %s\n%!" prob tag
      (Dapper_verify.Chaos.summary_to_string s);
    true
  | Error f ->
    Printf.printf "chaos p=%g%s FAILED %s\n%!" prob tag
      (Dapper_verify.Chaos.failure_to_string f);
    false

(* Recovery-rate and added-latency table over a range of fault
   probabilities (the EXPERIMENTS.md "Fault injection & recovery"
   numbers). *)
let run_chaos_table seeds =
  Printf.printf "%-8s %6s %10s %12s %8s %13s %10s\n%!" "p(fault)" "runs"
    "committed" "rolled-back" "faults" "retransmits" "added-ms";
  List.for_all
    (fun prob ->
      match Dapper_verify.Chaos.sweep ~spec:(Dapper_util.Fault.uniform prob) ~seeds () with
      | Ok s ->
        Printf.printf "%-8g %6d %10d %12d %8d %13d %10.2f\n%!" prob s.cs_runs
          s.cs_committed s.cs_rolled_back s.cs_faults s.cs_retransmits
          s.cs_added_ms;
        true
      | Error f ->
        Printf.printf "%-8g FAILED %s\n%!" prob
          (Dapper_verify.Chaos.failure_to_string f);
        false)
    [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ]

(* ----- sustained chaos: the self-healing control plane ----- *)

module Sustained = Dapper_health.Sustained
module Session = Dapper.Session
module Process = Dapper_machine.Process

(* Mirror of the bench fig9-chaos setup, trimmed for gate time: a warm
   redis parked halfway through its run, migrating xeon -> rpi with the
   paper-scale byte factor. *)
let sustained_setup () =
  let m = Servers.redis ~keys:1024 ~ops:2000 () in
  let c = Link.compile ~app:"redis-sustained" m in
  let src_bin = Link.binary_for c Arch.X86_64 in
  let dst_bin = Link.binary_for c Arch.Aarch64 in
  let total =
    let p = Process.load src_bin in
    match Process.run_to_completion p ~fuel:400_000_000 with
    | Process.Exited_run _ -> p.Process.total_instrs
    | _ -> failwith "redis-sustained: native run failed"
  in
  let warm = max 10_000 (int_of_float (Int64.to_float total *. 0.5)) in
  let fresh () =
    let p = Process.load src_bin in
    (match Process.run p ~max_instrs:warm with
     | Process.Progress -> ()
     | _ -> failwith "redis-sustained: finished before migration point");
    p
  in
  let scfg =
    { (Session.default_config ~src_bin ~dst_bin) with
      Session.cfg_src_node = Dapper_net.Node.xeon;
      cfg_dst_node = Dapper_net.Node.rpi;
      cfg_recode_node = Dapper_net.Node.xeon;
      cfg_bytes_scale = 1500.0 }
  in
  (scfg, fresh)

(* Two-arm sustained sweep over the same seeds, with the gate's
   invariants enforced: every run ends in an explicit commit, degraded
   commit, or rollback (no lost states), attempts stay bounded, and the
   control plane must not worsen the during-migration tail. *)
let run_sustained seeds events_file =
  let scfg, fresh = sustained_setup () in
  let arms =
    List.map
      (fun control ->
        let cfg = { Sustained.default_cfg with Sustained.su_control = control } in
        Sustained.sweep cfg scfg ~fresh ~seeds ~seed0:0x5EED5EEDL)
      [ true; false ]
  in
  let ok = ref true in
  List.iter
    (fun ((runs, y) : Sustained.run list * Sustained.summary) ->
      print_endline (Sustained.summary_line y);
      let arm = if y.Sustained.y_control then "control-on" else "control-off" in
      let verdicts =
        y.Sustained.y_committed + y.Sustained.y_degraded + y.Sustained.y_rolled_back
      in
      if verdicts <> seeds then begin
        ok := false;
        Printf.printf
          "sustained FAILED (%s): %d explicit verdicts <> %d seeds — a run \
           ended without committing or rolling back\n%!"
          arm verdicts seeds
      end;
      List.iter
        (fun (r : Sustained.run) ->
          if r.Sustained.r_attempts > Sustained.max_attempts then begin
            ok := false;
            Printf.printf
              "sustained FAILED (%s): seed %016Lx took %d attempts (bound %d)\n%!"
              arm r.Sustained.r_seed r.Sustained.r_attempts Sustained.max_attempts
          end)
        runs)
    arms;
  (match arms with
   | [ (_, on); (_, off) ] ->
     let p_on = Sustained.mig_p99 on and p_off = Sustained.mig_p99 off in
     Printf.printf "during-migration p99: %.2f ms on vs %.2f ms off\n%!" p_on p_off;
     if p_on > p_off then begin
       ok := false;
       Printf.printf
         "sustained FAILED: control plane worsened the during-migration p99\n%!"
     end
   | _ -> ());
  (match events_file with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     (match arms with
      | (runs, _) :: _ ->
        List.iter
          (fun (r : Sustained.run) ->
            List.iter
              (fun l -> output_string oc (l ^ "\n"))
              (Sustained.event_lines r))
          runs
      | [] -> ());
     close_out oc;
     Printf.printf "degradation-event trace written to %s\n%!" file);
  !ok

(* ----- record / replay / shadow ----- *)

module Replayer = Dapper_replay.Replayer
module Shadow = Dapper_replay.Shadow
module Rlog = Dapper_replay.Log

let unknown_program name =
  Printf.eprintf
    "verify: unknown program %S (expected an example-corpus name, gen<SEED>, \
     or a registry benchmark)\n%!"
    name;
  1

let unknown_arch s =
  Printf.eprintf "verify: unknown architecture %S (expected x86-64 or aarch64)\n%!" s;
  1

let with_program name arch f =
  match resolve name with
  | None -> unknown_program name
  | Some (name, c) ->
    (match Arch.of_name arch with
     | None -> unknown_arch arch
     | Some a -> f name c a)

let run_replay_record name arch out =
  with_program name arch (fun name c a ->
      match Replayer.record (Link.binary_for c a) with
      | Error e ->
        Printf.printf "record %-16s FAILED %s\n%!" name e;
        1
      | Ok log ->
        Printf.printf "record %-16s %s\n%!" name (Rlog.summary log);
        (match out with
         | None -> ()
         | Some file ->
           let oc = open_out_bin file in
           output_string oc (Rlog.encode log);
           close_out oc;
           Printf.printf "log written to %s (%s)\n%!" file Rlog.file_name);
        0)

let run_replay_run name arch replay_arch log_file =
  with_program name arch (fun name c a ->
      match Arch.of_name replay_arch with
      | None -> unknown_arch replay_arch
      | Some b ->
        let log =
          match log_file with
          | Some file ->
            (try
               let ic = open_in_bin file in
               let s = really_input_string ic (in_channel_length ic) in
               close_in ic;
               Ok (Rlog.decode s)
             with
             | Rlog.Log_error e -> Error e
             | Sys_error e -> Error e)
          | None ->
            (match Replayer.record (Link.binary_for c a) with
             | Ok log -> Ok log
             | Error e -> Error e)
        in
        (match log with
         | Error e ->
           Printf.printf "replay %-16s FAILED to obtain a log: %s\n%!" name e;
           1
         | Ok log ->
           (match Replayer.replay ~log (Link.binary_for c b) with
            | Ok o ->
              let same = Arch.equal b log.Rlog.lg_arch in
              let faithful =
                (not same)
                || Int64.equal (Rlog.fingerprint o.Replayer.ro_log)
                     (Rlog.fingerprint log)
              in
              Printf.printf "replay %-16s %s%s\n%!" name
                (Replayer.outcome_to_string o)
                (if same then
                   if faithful then " (log reproduced byte-identically)"
                   else " (LOG FINGERPRINT MISMATCH)"
                 else "");
              if faithful then 0 else 1
            | Error d ->
              Printf.printf "replay %-16s DIVERGED %s\n%!" name
                (Replayer.divergence_report d);
              1)))

let run_replay_shadow name max_points clean report_file =
  match resolve name with
  | None -> unknown_program name
  | Some (name, c) ->
    let buf = Buffer.create 256 in
    let ok =
      List.for_all
        (fun (src, dst) ->
          match
            Oracle.check_shadow ~max_points ~corrupt:(not clean) ~src ~dst c
          with
          | Ok r ->
            Printf.printf "shadow %-16s %s\n%!" name
              (Oracle.shadow_report_to_string r);
            List.iter
              (fun rep ->
                print_endline rep;
                Buffer.add_string buf (rep ^ "\n"))
              r.Oracle.sr_divergences;
            true
          | Error f ->
            Printf.printf "shadow %-16s FAILED %s\n%!" name
              (Oracle.failure_to_string f);
            false)
        directions
    in
    (match report_file with
     | None -> ()
     | Some file ->
       let oc = open_out file in
       output_string oc
         (if Buffer.length buf = 0 then
            "no divergences (clean shadows only)\n"
          else Buffer.contents buf);
       close_out oc;
       Printf.printf "divergence reports written to %s\n%!" file);
    if ok then 0 else 1

(* ----- the full gate ----- *)

let run_conformance count max_points =
  let static_ok = run_static () in
  let mutations_ok = run_mutations () in
  let corpus_ok = run_corpus () in
  let fuzz_ok = run_fuzz count max_points in
  let fastpath_ok = run_fastpath 2 in
  let ok = static_ok && mutations_ok && corpus_ok && fuzz_ok && fastpath_ok in
  Printf.printf
    "conformance: static %s, mutations %s, corpus %s, fuzz %s, fastpath %s\n%!"
    (if static_ok then "ok" else "FAILED")
    (if mutations_ok then "ok" else "FAILED")
    (if corpus_ok then "ok" else "FAILED")
    (if fuzz_ok then "ok" else "FAILED")
    (if fastpath_ok then "ok" else "FAILED");
  if ok then 0 else 1

(* ----- command line ----- *)

let count_arg =
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
         ~doc:"Number of generated seeds to sweep.")

let max_points_arg default =
  Arg.(value & opt int default & info [ "max-points" ] ~docv:"K"
         ~doc:"Cap on dynamic equivalence points walked per program.")

let opt_max_points_arg =
  Arg.(value & opt (some int) None & info [ "max-points" ] ~docv:"K"
         ~doc:"Cap on dynamic equivalence points walked per program.")

let name_arg =
  Arg.(value & pos 0 string "mini-quickstart" & info [] ~docv:"NAME"
         ~doc:"Program: an example-corpus name, gen<SEED>, or a registry benchmark.")

let bool_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> if f () then 0 else 1) $ const ())

let cmd =
  Cmd.group
    (Cmd.info "verify" ~doc:"Dapper cross-ISA conformance harness")
    [ bool_cmd "static" "Statically verify the stack maps of every seed binary" run_static;
      bool_cmd "mutations" "Check that corrupted stack maps are rejected" run_mutations;
      Cmd.v
        (Cmd.info "oracle" ~doc:"Run the migration oracle for one program, both directions")
        Term.(const run_oracle $ name_arg $ opt_max_points_arg);
      bool_cmd "corpus"
        "Oracle sweep at every equivalence point of the example corpus, both directions"
        run_corpus;
      Cmd.v
        (Cmd.info "fuzz" ~doc:"Oracle over the seeded generated corpus, both directions")
        Term.(const (fun n k -> if run_fuzz n k then 0 else 1)
              $ count_arg $ max_points_arg 3);
      Cmd.v
        (Cmd.info "chaos"
           ~doc:"Seeded fault-injection sweep: every run must commit or roll back \
                 cleanly. With $(b,--table), sweep a range of fault probabilities. \
                 With $(b,--sustained), run the self-healing control plane under \
                 sustained correlated faults, control on vs off.")
        Term.(const (fun seeds prob verbose table trace pipeline mechanism
                       sustained events ->
                  match
                    match mechanism with
                    | None -> Ok None
                    | Some s ->
                      (match Dapper_traffic.Budget.mechanism_of_string s with
                       | Some m -> Ok (Some m)
                       | None -> Error s)
                  with
                  | Error s ->
                    Printf.eprintf
                      "verify: unknown mechanism %S (expected vanilla, precopy, \
                       lazy, or hybrid)\n%!" s;
                    1
                  | Ok mechanism ->
                    if trace <> None then Dapper_obs.Trace.start ();
                    let ok =
                      if sustained then run_sustained seeds events
                      else if table then run_chaos_table seeds
                      else run_chaos seeds prob verbose pipeline mechanism
                    in
                    (match trace with
                     | None -> ()
                     | Some file ->
                       Dapper_obs.Trace.stop ();
                       Dapper_obs.Trace.export ~file;
                       Printf.printf "trace written to %s\n%!" file);
                    if ok then 0 else 1)
              $ Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N"
                       ~doc:"Number of seeded fault schedules to sweep.")
              $ Arg.(value & opt float 0.2 & info [ "prob" ] ~docv:"P"
                       ~doc:"Per-site fault probability (node crashes at P/3).")
              $ Arg.(value & flag & info [ "verbose" ] ~doc:"Print every run.")
              $ Arg.(value & flag & info [ "table" ]
                       ~doc:"Print the recovery-rate table over fault probabilities.")
              $ Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
                       ~doc:"Export a Chrome trace_event JSON trace of the sweep \
                             (simulated clock) to $(docv).")
              $ Arg.(value & flag & info [ "pipeline" ]
                       ~doc:"Stream transfers in page-sized chunks (the pipelined \
                             fast path); faults mid-stream must still commit or \
                             roll back.")
              $ Arg.(value & opt (some string) None
                     & info [ "mechanism" ] ~docv:"MECH"
                         ~doc:"Pin the copy mechanism (vanilla, precopy, lazy, or \
                               hybrid) instead of drawing it per seed.")
              $ Arg.(value & flag & info [ "sustained" ]
                       ~doc:"Sustained-chaos gate: correlated fault windows, the \
                             full health plane on vs off over the same seeds; \
                             every run must end in an explicit commit, degraded \
                             commit, or rollback.")
              $ Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
                       ~doc:"With $(b,--sustained), write the control-on \
                             degradation-event trace to $(docv)."));
      Cmd.v
        (Cmd.info "fastpath"
           ~doc:"Byte-equivalence of the recode fast paths (pipelined, \
                 multi-worker, combined) against the sequential pipeline, over the \
                 example corpus in both directions")
        Term.(const (fun points -> if run_fastpath points then 0 else 1)
              $ Arg.(value & opt int 3 & info [ "points" ] ~docv:"K"
                       ~doc:"Equivalence points exercised per program/direction."));
      Cmd.group
        (Cmd.info "replay"
           ~doc:"Record/replay plane: record nondeterministic inputs, replay \
                 them on either ISA, and shadow-replay migrations with \
                 divergence localization")
        [ Cmd.v
            (Cmd.info "record"
               ~doc:"Record one complete execution's nondeterministic inputs \
                     (syscall results, scheduler slices) interleaved with \
                     equivalence-point snapshot anchors")
            Term.(const run_replay_record $ name_arg
                  $ Arg.(value & opt string "x86-64"
                         & info [ "arch" ] ~docv:"ARCH"
                             ~doc:"ISA to record on (x86-64 or aarch64).")
                  $ Arg.(value & opt (some string) None
                         & info [ "out" ] ~docv:"FILE"
                             ~doc:"Write the encoded replay.img log to $(docv)."));
          Cmd.v
            (Cmd.info "run"
               ~doc:"Re-execute a recording, validating every syscall result \
                     and anchor snapshot (and, same-ISA, every scheduler \
                     slice); a same-ISA replay must reproduce the log \
                     byte-identically")
            Term.(const run_replay_run $ name_arg
                  $ Arg.(value & opt string "x86-64"
                         & info [ "arch" ] ~docv:"ARCH"
                             ~doc:"ISA to record on (ignored with --log).")
                  $ Arg.(value & opt string "x86-64"
                         & info [ "replay-arch" ] ~docv:"ARCH"
                             ~doc:"ISA to replay on (x86-64 or aarch64).")
                  $ Arg.(value & opt (some string) None
                         & info [ "log" ] ~docv:"FILE"
                             ~doc:"Replay a previously recorded log instead \
                                   of recording afresh."));
          Cmd.v
            (Cmd.info "shadow"
               ~doc:"Shadow-replay migrations against a recording, both \
                     directions: clean migrations must match pointwise, and \
                     (unless --clean) a deliberately corrupted rewritten \
                     image must be localized to the first diverging \
                     equivalence point and page")
            Term.(const run_replay_shadow $ name_arg
                  $ Arg.(value & opt int 2 & info [ "max-points" ] ~docv:"K"
                           ~doc:"Migration points exercised per direction.")
                  $ Arg.(value & flag & info [ "clean" ]
                           ~doc:"Skip the corruption-injection runs.")
                  $ Arg.(value & opt (some string) None
                         & info [ "report" ] ~docv:"FILE"
                             ~doc:"Write the divergence reports to $(docv).")) ];
      Cmd.v
        (Cmd.info "conformance"
           ~doc:"The full gate: static + mutations + example sweep + generated corpus")
        Term.(const run_conformance $ count_arg $ max_points_arg 3) ]

let () = exit (Cmd.eval' cmd)
