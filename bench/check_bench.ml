(* check_bench: CI gate over BENCH_RESULTS.json. Fails (exit 1) when the
   file is missing, unparseable, missing a required top-level key, has a
   malformed benchmark entry, or lacks one of the must-have benchmark
   names — so a silently shrinking micro suite can't pass `dune runtest`. *)

module J = Dapper_util.Json

let required_names =
  [ "dapper/fig5-criu-dump"; "dapper/fig5-rewrite-x86-to-arm";
    "dapper/fig5-pipeline-schedule";
    "dapper/fig5-criu-restore"; "dapper/redis-recode-x86-to-arm";
    "dapper/event-heap-churn"; "dapper/fig8-xl-sched-overhead";
    "dapper/replay-record"; "dapper/replay-run"; "dapper/fig6-interp-100k-instrs" ]

(* Placement policies every fig8-xl sweep must cover, and the numeric
   fields every row must carry. *)
let required_xl_policies = [ "first-fit"; "energy-aware"; "slo-aware" ]

let required_xl_fields =
  [ "nodes"; "jobs"; "jobs_done"; "slo_met"; "slo_missed"; "nodes_powered";
    "jobs_per_kj"; "throughput_per_min"; "events"; "events_per_sim_s";
    "makespan_ms" ]

(* Migration mechanisms every fig7-live sweep must cover, and the numeric
   fields every row must carry. *)
let required_live_mechanisms = [ "vanilla"; "lazy"; "hybrid" ]

let required_live_fields =
  [ "requests"; "stalled"; "faulted"; "precopy_ms"; "blackout_ms"; "p50_ms";
    "p99_ms"; "p999_ms"; "mig_p50_ms"; "mig_p99_ms"; "mig_p999_ms" ]

(* Both arms of the sustained-chaos sweep must be present, every row
   must carry these numeric fields, the per-arm verdicts must account
   for every seed (no lost states), and the control plane must not
   worsen the during-migration tail. *)
let required_chaos_arms = [ "on"; "off" ]

let required_chaos_fields =
  [ "seeds"; "committed"; "degraded"; "rolled_back"; "postponed"; "attempts";
    "sheds"; "breaker_trips"; "deadline_cancels"; "availability"; "mig_p99_ms" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_bench: " ^ s); exit 1) fmt

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_RESULTS.json" in
  let contents =
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> die "cannot read %s: %s" file e
  in
  let doc = try J.of_string contents with J.Parse_error e -> die "%s: %s" file e in
  let suite =
    match J.member_opt "suite" doc with
    | Some s -> (try J.to_str s with _ -> die "%s: \"suite\" is not a string" file)
    | None -> die "%s: missing key \"suite\"" file
  in
  if suite <> "dapper-micro" then die "%s: unexpected suite %S" file suite;
  (match J.member_opt "smoke" doc with
   | Some b -> (try ignore (J.to_bool b) with _ -> die "%s: \"smoke\" is not a bool" file)
   | None -> die "%s: missing key \"smoke\"" file);
  let entries =
    match J.member_opt "benchmarks" doc with
    | Some l -> (try J.to_list l with _ -> die "%s: \"benchmarks\" is not a list" file)
    | None -> die "%s: missing key \"benchmarks\"" file
  in
  let names =
    List.map
      (fun e ->
        let name =
          match J.member_opt "name" e with
          | Some n ->
            (try J.to_str n with _ -> die "%s: benchmark \"name\" is not a string" file)
          | None -> die "%s: benchmark entry missing \"name\"" file
        in
        (match J.member_opt "ns_per_run" e with
         | Some J.Null -> ()
         | Some v ->
           (try ignore (J.to_float v)
            with _ -> die "%s: %s: \"ns_per_run\" is not a number" file name)
         | None -> die "%s: %s: missing \"ns_per_run\"" file name);
        name)
      entries
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then die "%s: missing benchmark %S" file want)
    required_names;
  let xl_rows =
    match J.member_opt "fig8_xl" doc with
    | Some l -> (try J.to_list l with _ -> die "%s: \"fig8_xl\" is not a list" file)
    | None -> die "%s: missing key \"fig8_xl\"" file
  in
  if xl_rows = [] then die "%s: \"fig8_xl\" is empty" file;
  let xl_policies =
    List.map
      (fun row ->
        let policy =
          match J.member_opt "policy" row with
          | Some p ->
            (try J.to_str p
             with _ -> die "%s: fig8_xl row \"policy\" is not a string" file)
          | None -> die "%s: fig8_xl row missing \"policy\"" file
        in
        List.iter
          (fun field ->
            match J.member_opt field row with
            | Some v ->
              (try ignore (J.to_float v)
               with _ ->
                 die "%s: fig8_xl %s: %S is not a number" file policy field)
            | None -> die "%s: fig8_xl %s: missing %S" file policy field)
          required_xl_fields;
        (match J.member_opt "jobs_done" row with
         | Some v when (try J.to_float v <= 0.0 with _ -> false) ->
           die "%s: fig8_xl %s: jobs_done is zero" file policy
         | _ -> ());
        policy)
      xl_rows
  in
  List.iter
    (fun want ->
      if not (List.mem want xl_policies) then
        die "%s: fig8_xl missing policy %S" file want)
    required_xl_policies;
  let live_rows =
    match J.member_opt "fig7_live" doc with
    | Some l -> (try J.to_list l with _ -> die "%s: \"fig7_live\" is not a list" file)
    | None -> die "%s: missing key \"fig7_live\"" file
  in
  if live_rows = [] then die "%s: \"fig7_live\" is empty" file;
  let live_mechanisms =
    List.map
      (fun row ->
        let mech =
          match J.member_opt "mechanism" row with
          | Some m ->
            (try J.to_str m
             with _ -> die "%s: fig7_live row \"mechanism\" is not a string" file)
          | None -> die "%s: fig7_live row missing \"mechanism\"" file
        in
        List.iter
          (fun field ->
            match J.member_opt field row with
            | Some v ->
              (try ignore (J.to_float v)
               with _ ->
                 die "%s: fig7_live %s: %S is not a number" file mech field)
            | None -> die "%s: fig7_live %s: missing %S" file mech field)
          required_live_fields;
        (match J.member_opt "requests" row with
         | Some v when (try J.to_float v <= 0.0 with _ -> false) ->
           die "%s: fig7_live %s: requests is zero" file mech
         | _ -> ());
        (match J.member_opt "fingerprint" row with
         | Some f ->
           (try
              if String.length (J.to_str f) <> 16 then
                die "%s: fig7_live %s: fingerprint is not 16 hex chars" file mech
            with _ -> die "%s: fig7_live %s: \"fingerprint\" is not a string" file mech)
         | None -> die "%s: fig7_live %s: missing \"fingerprint\"" file mech);
        mech)
      live_rows
  in
  List.iter
    (fun want ->
      if not (List.mem want live_mechanisms) then
        die "%s: fig7_live missing mechanism %S" file want)
    required_live_mechanisms;
  let chaos_rows =
    match J.member_opt "fig9_chaos" doc with
    | Some l ->
      (try J.to_list l with _ -> die "%s: \"fig9_chaos\" is not a list" file)
    | None -> die "%s: missing key \"fig9_chaos\"" file
  in
  if chaos_rows = [] then die "%s: \"fig9_chaos\" is empty" file;
  let chaos_field arm row field =
    match J.member_opt field row with
    | Some v ->
      (try J.to_float v
       with _ -> die "%s: fig9_chaos %s: %S is not a number" file arm field)
    | None -> die "%s: fig9_chaos %s: missing %S" file arm field
  in
  let chaos_arms =
    List.map
      (fun row ->
        let arm =
          match J.member_opt "control" row with
          | Some c ->
            (try J.to_str c
             with _ -> die "%s: fig9_chaos row \"control\" is not a string" file)
          | None -> die "%s: fig9_chaos row missing \"control\"" file
        in
        List.iter (fun f -> ignore (chaos_field arm row f)) required_chaos_fields;
        let seeds = chaos_field arm row "seeds" in
        if seeds <= 0.0 then die "%s: fig9_chaos %s: seeds is zero" file arm;
        let verdicts =
          chaos_field arm row "committed"
          +. chaos_field arm row "degraded"
          +. chaos_field arm row "rolled_back"
        in
        if verdicts <> seeds then
          die
            "%s: fig9_chaos %s: committed+degraded+rolled_back = %g <> %g \
             seeds (a run ended without an explicit verdict)"
            file arm verdicts seeds;
        (arm, chaos_field arm row "mig_p99_ms"))
      chaos_rows
  in
  List.iter
    (fun want ->
      if not (List.mem_assoc want chaos_arms) then
        die "%s: fig9_chaos missing control arm %S" file want)
    required_chaos_arms;
  (match (List.assoc_opt "on" chaos_arms, List.assoc_opt "off" chaos_arms) with
   | Some p_on, Some p_off when p_on > p_off ->
     die
       "%s: fig9_chaos: control-on during-migration p99 (%.2f ms) worse than \
        control-off (%.2f ms)"
       file p_on p_off
   | _ -> ());
  Printf.printf
    "check_bench: %s ok (%d benchmarks, %d required present, %d fig8-xl rows, \
     %d fig7-live rows, %d fig9-chaos rows)\n"
    file (List.length names) (List.length required_names) (List.length xl_rows)
    (List.length live_rows) (List.length chaos_rows)
