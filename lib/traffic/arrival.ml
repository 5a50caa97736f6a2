open Dapper_util

(* The clock sits in a float-only record, whose fields are stored
   unboxed: as mutable floats of [t] every write would box. *)
type clock = { mutable now : float; mutable switch_at : float }

type t = {
  a_rng : Rng.t;
  a_states : (float * float) array;  (* (rate_per_ms, mean_hold_ms) *)
  mutable a_state : int;
  a_clock : clock;
}

(* [Rng.float] is in [0, 1), so [1 - u] is in (0, 1] and the log is
   finite. *)
let[@inline] expo rng = -.Float.log (1.0 -. Rng.float rng)

let mmpp ~seed states =
  if Array.length states = 0 then invalid_arg "Arrival.mmpp: no states";
  Array.iter
    (fun (rate, hold) ->
      if rate <= 0.0 || hold <= 0.0 then
        invalid_arg "Arrival.mmpp: rates and holds must be positive")
    states;
  let rng = Rng.create seed in
  let _, hold0 = states.(0) in
  let switch_at =
    if Array.length states = 1 then infinity else expo rng *. hold0
  in
  { a_rng = rng; a_states = states; a_state = 0;
    a_clock = { now = 0.0; switch_at } }

let poisson ~seed ~rate_per_ms =
  if rate_per_ms <= 0.0 then invalid_arg "Arrival.poisson: rate must be positive";
  (* the hold time is irrelevant for a single state; 1.0 keeps it valid *)
  mmpp ~seed [| (rate_per_ms, 1.0) |]

(* A loop rather than a recursion, so that inlined into the caller the
   returned time stays unboxed. *)
let[@inline] next t =
  let c = t.a_clock in
  let rate, _ = t.a_states.(t.a_state) in
  let dt = ref (expo t.a_rng /. rate) in
  while not (c.now +. !dt <= c.switch_at) do
    (* jump to the state boundary and redraw there: both the modulating
       chain and the arrival process are memoryless, so discarding the
       partial inter-arrival is exact, not an approximation *)
    c.now <- c.switch_at;
    t.a_state <- (t.a_state + 1) mod Array.length t.a_states;
    let rate, hold = t.a_states.(t.a_state) in
    c.switch_at <- c.now +. (expo t.a_rng *. hold);
    dt := expo t.a_rng /. rate
  done;
  c.now <- c.now +. !dt;
  c.now

let mean_rate_per_ms t =
  let num = ref 0.0 and den = ref 0.0 in
  Array.iter
    (fun (rate, hold) ->
      num := !num +. (rate *. hold);
      den := !den +. hold)
    t.a_states;
  !num /. !den
