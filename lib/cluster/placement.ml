type t = Latest_start | First_fit | Energy_aware | Slo_aware | Latency_aware

let name = function
  | Latest_start -> "latest-start"
  | First_fit -> "first-fit"
  | Energy_aware -> "energy-aware"
  | Slo_aware -> "slo-aware"
  | Latency_aware -> "latency-aware"

let all = [ Latest_start; First_fit; Energy_aware; Slo_aware; Latency_aware ]

let of_string s = List.find_opt (fun p -> name p = s) all

(* All selection rules keep the first candidate among ties (strict
   comparisons), so candidate order — slot order by contract — is the
   deterministic tie-break. *)
let best_by better = function
  | [] -> None
  | c :: cs ->
    Some (List.fold_left (fun best c -> if better c best then c else best) c cs)

type dest = {
  dc_index : int;
  dc_lowest_slot : int;
  dc_ops_per_ns : float;
  dc_core_w : float;
  dc_est_ms : float;
}

(* Active watts divided by speed: joules charged per unit of work — the
   quantity energy-aware placement minimizes. *)
let watts_per_speed d = d.dc_core_w /. d.dc_ops_per_ns

let choose_dest policy ?deadline_ms ?page_wait_ms candidates =
  match policy with
  | Latency_aware ->
    (* Minimize the page-server stall the migrating job's clients will
       see (the rack wait the traffic plane charges to faulting
       requests); break ties on total estimated completion. Without the
       hook the estimate is all we have. *)
    let wait = match page_wait_ms with None -> fun c -> c.dc_est_ms | Some f -> f in
    best_by
      (fun c best ->
        let wc = wait c and wb = wait best in
        wc < wb || (wc = wb && c.dc_est_ms < best.dc_est_ms))
      candidates
  | Latest_start | First_fit ->
    best_by (fun c best -> c.dc_lowest_slot < best.dc_lowest_slot) candidates
  | Energy_aware ->
    best_by (fun c best -> watts_per_speed c < watts_per_speed best) candidates
  | Slo_aware -> (
    let meets =
      match deadline_ms with
      | None -> candidates
      | Some dl -> List.filter (fun c -> c.dc_est_ms <= dl) candidates
    in
    match meets with
    | [] -> best_by (fun c best -> c.dc_est_ms < best.dc_est_ms) candidates
    | _ -> best_by (fun c best -> watts_per_speed c < watts_per_speed best) meets)
