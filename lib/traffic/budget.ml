type mechanism = Vanilla | Precopy | Hybrid | Postcopy

let mechanism_name = function
  | Vanilla -> "vanilla"
  | Precopy -> "precopy"
  | Hybrid -> "hybrid"
  | Postcopy -> "lazy"

let all_mechanisms = [ Vanilla; Precopy; Hybrid; Postcopy ]

let needs_lazy = function
  | Vanilla | Precopy -> false
  | Hybrid | Postcopy -> true

let precopies = function
  | Precopy | Hybrid -> true
  | Vanilla | Postcopy -> false

let mechanism_of_string s =
  List.find_opt (fun m -> mechanism_name m = s) all_mechanisms

type estimate = {
  e_image_bytes : int;
  e_residual_bytes : int;
  e_fixed_ms : float;
  e_lazy_fixed_ms : float;
  e_wire_ns_per_byte : float;
}

let wire_ms e bytes = float_of_int bytes *. e.e_wire_ns_per_byte /. 1e6

let downtime_ms e = function
  | Vanilla -> e.e_fixed_ms +. wire_ms e e.e_image_bytes
  | Precopy -> e.e_fixed_ms +. wire_ms e e.e_residual_bytes
  | Hybrid | Postcopy -> e.e_lazy_fixed_ms

let choose_detail ~budget_ms e =
  if budget_ms < 0.0 then invalid_arg "Budget.choose: negative budget";
  match
    List.find_opt (fun m -> downtime_ms e m <= budget_ms) all_mechanisms
  with
  | Some m -> (m, true)
  | None ->
    (* nothing fits: least-bad blackout, earliest in preference order
       on ties (strict <, first kept) *)
    ( List.fold_left
        (fun best m -> if downtime_ms e m < downtime_ms e best then m else best)
        Vanilla all_mechanisms,
      false )

let choose ~budget_ms e = fst (choose_detail ~budget_ms e)
