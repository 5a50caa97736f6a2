type cfg = {
  q_alpha : float;
  q_threshold : float;
  q_min_reports : int;
  q_heal_ms : float;
}

let default_cfg =
  { q_alpha = 0.3; q_threshold = 0.5; q_min_reports = 3; q_heal_ms = 5_000.0 }

type entry = {
  mutable e_ewma : float;
  mutable e_reports : int;
  mutable e_quarantined_at : float option;
}

type t = {
  c : cfg;
  tbl : (int, entry) Hashtbl.t;
  mutable q_entered : int;
}

let create ?(cfg = default_cfg) () =
  if cfg.q_alpha <= 0.0 || cfg.q_alpha > 1.0 then
    invalid_arg "Quarantine.create: alpha outside (0, 1]";
  if cfg.q_threshold <= 0.0 || cfg.q_threshold > 1.0 then
    invalid_arg "Quarantine.create: threshold outside (0, 1]";
  if cfg.q_min_reports < 1 then invalid_arg "Quarantine.create: min_reports < 1";
  if cfg.q_heal_ms < 0.0 then invalid_arg "Quarantine.create: heal_ms < 0";
  { c = cfg; tbl = Hashtbl.create 16; q_entered = 0 }

let entry t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> e
  | None ->
    let e = { e_ewma = 0.0; e_reports = 0; e_quarantined_at = None } in
    Hashtbl.add t.tbl key e;
    e

let failure_ewma t ~key =
  match Hashtbl.find_opt t.tbl key with None -> 0.0 | Some e -> e.e_ewma

(* Time-based auto-release: a quarantined offender takes no work, so no
   new reports arrive — after a healthy probe window it is re-admitted
   on half trust (EWMA reset to the threshold's half), ready to re-trip
   quickly if it is still bad. *)
let release_if_healed t e ~now_ms =
  match e.e_quarantined_at with
  | Some since when now_ms -. since >= t.c.q_heal_ms ->
    e.e_quarantined_at <- None;
    e.e_ewma <- t.c.q_threshold /. 2.0;
    e.e_reports <- 0
  | _ -> ()

let report t ~key ~now_ms ~ok =
  let e = entry t key in
  release_if_healed t e ~now_ms;
  let x = if ok then 0.0 else 1.0 in
  e.e_ewma <- (t.c.q_alpha *. x) +. ((1.0 -. t.c.q_alpha) *. e.e_ewma);
  e.e_reports <- e.e_reports + 1;
  if
    e.e_quarantined_at = None
    && e.e_reports >= t.c.q_min_reports
    && e.e_ewma >= t.c.q_threshold
  then begin
    e.e_quarantined_at <- Some now_ms;
    t.q_entered <- t.q_entered + 1
  end

let admits t ~key ~now_ms =
  match Hashtbl.find_opt t.tbl key with
  | None -> true
  | Some e ->
    release_if_healed t e ~now_ms;
    e.e_quarantined_at = None

let quarantined t ~now_ms =
  Hashtbl.fold
    (fun key e acc ->
      release_if_healed t e ~now_ms;
      if e.e_quarantined_at <> None then key :: acc else acc)
    t.tbl []
  |> List.sort compare

let entered t = t.q_entered
