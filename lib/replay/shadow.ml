open Dapper_isa
open Dapper_machine
module Trace = Dapper_obs.Trace
module Derr = Dapper_util.Dapper_error
open Replayer.Internal

type verdict = Match | Diverged of Replayer.divergence

type report = {
  sh_app : string;
  sh_arch : Arch.t;
  sh_from_point : int;
  sh_points : int;
  sh_syscalls : int;
  sh_substituted : int;
  sh_verdict : verdict;
}

(* Position the cursor just past anchor [from_point]: everything before
   it belongs to the recorded prefix the migrated process inherited as
   restored state. *)
let seek_past c from_point =
  let rec drop = function
    | Log.Eqpoint eq :: rest when eq.Log.eq_index = from_point -> rest
    | _ :: rest -> drop rest
    | [] ->
      diverge ~point:from_point ~kind:"log"
        "log has no equivalence point %d to shadow from" from_point
  in
  c.cur <- drop c.cur;
  c.next_point <- from_point + 1

let check ?(budget = default_budget) ~(log : Log.t) ~from_point (q : Process.t) =
  let strict = q.Process.arch = log.Log.lg_arch in
  Trace.with_span ~cat:"replay" "shadow"
    ~args:
      [ ("app", log.Log.lg_app); ("arch", Arch.name q.Process.arch);
        ("from", string_of_int from_point);
        ("mode", if strict then "same-isa" else "cross-isa") ]
    (fun cl ->
      let c = make_cursor ~strict log in
      let compared = ref 0 in
      let run () =
        let eq0 =
          try Log.point log from_point
          with Log.Log_error e -> diverge ~point:from_point ~kind:"log" "%s" e
        in
        let prefix_len = eq0.Log.eq_stdout_len in
        seek_past c from_point;
        (* anchor 0: the restored state itself must be the recorded one *)
        compare_point ~log ~prefix_len eq0 q;
        incr compared;
        q.Process.nondet <- Some (hooks_of_cursor c);
        let fin =
          Fun.protect
            ~finally:(fun () -> q.Process.nondet <- None)
            (fun () ->
              walk ~budget q ~on_point:(fun i ->
                  let j = from_point + 1 + i in
                  let eq = cursor_eqpoint c j in
                  compare_point ~log ~prefix_len eq q;
                  incr compared))
        in
        (match fin with
        | Error e ->
          diverge ~point:c.next_point ~kind:"pause"
            ~frames:(frames_at log c.next_point) "shadow walk failed: %s"
            (Derr.to_string e)
        | Ok _ -> ());
        crash_check ~point:c.next_point q;
        (match cursor_at_end c with
        | Some e ->
          diverge ~point:c.next_point ~kind:"log"
            ~frames:(frames_at log c.next_point)
            "shadow exited with unconsumed log entries, next: %s"
            (Log.entry_to_string e)
        | None -> ());
        let exit =
          match q.Process.exit_code with
          | Some e -> e
          | None ->
            diverge ~point:c.next_point ~kind:"exit"
              "shadow finished without an exit code"
        in
        if not (Int64.equal exit log.Log.lg_exit) then
          diverge ~point:c.next_point ~kind:"exit"
            "exit code %Ld, log recorded %Ld" exit log.Log.lg_exit;
        compare_point ~log ~prefix_len log.Log.lg_final q
      in
      let verdict =
        match run () with
        | () -> Match
        | exception Diverge d ->
          Trace.add_arg cl "divergence" d.Replayer.dv_what;
          Diverged d
      in
      Trace.add_arg cl "points" (string_of_int !compared);
      { sh_app = log.Log.lg_app;
        sh_arch = q.Process.arch;
        sh_from_point = from_point;
        sh_points = !compared;
        sh_syscalls = c.validated;
        sh_substituted = c.substituted;
        sh_verdict = verdict })

let report_to_string r =
  let head =
    Printf.sprintf
      "shadow replay of %s from eqpoint %d on %s: %s\n  %d anchors compared, \
       %d syscalls validated, %d clock results substituted"
      r.sh_app r.sh_from_point (Arch.name r.sh_arch)
      (match r.sh_verdict with Match -> "MATCH" | Diverged _ -> "DIVERGED")
      r.sh_points r.sh_syscalls r.sh_substituted
  in
  match r.sh_verdict with
  | Match -> head
  | Diverged d -> head ^ "\n" ^ Replayer.divergence_report d
