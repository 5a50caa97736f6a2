(* The exact extremes sit in a float-only record, whose fields are stored
   unboxed: as mutable floats of the mixed record [t] every update would
   box. *)
type extremes = { mutable x_min : float; mutable x_max : float }

type t = {
  k_rel_err : float;
  k_log_gamma : float;
  k_gamma : float;
  mutable k_counts : int array;  (* k_counts.(i) counts bucket k_base + i *)
  mutable k_base : int;
  mutable k_zero : int;
  mutable k_count : int;
  k_ext : extremes;
}

(* Values below this fold into the exact zero bucket: latencies are
   milliseconds, so a nanosecond-scale floor loses nothing and keeps
   bucket indexes bounded (at 1%, from about -1040 at the floor to about
   +35.5k at [max_float]). *)
let zero_floor = 1e-9

let create ?(rel_err = 0.01) () =
  if not (rel_err > 0.0 && rel_err < 1.0) then
    invalid_arg "Sketch.create: rel_err outside (0, 1)";
  let gamma = (1.0 +. rel_err) /. (1.0 -. rel_err) in
  { k_rel_err = rel_err;
    k_gamma = gamma;
    k_log_gamma = Float.log gamma;
    k_counts = [||];
    k_base = 0;
    k_zero = 0;
    k_count = 0;
    k_ext = { x_min = nan; x_max = nan } }

let rel_err t = t.k_rel_err
let count t = t.k_count
let zero_count t = t.k_zero

(* Bucket k holds (gamma^(k-1), gamma^k]: ceil of the log-gamma index. *)
let[@inline] key t v = int_of_float (Float.ceil (Float.log v /. t.k_log_gamma))

(* Widen the dense array to cover bucket [k], at least doubling it and
   keeping the old buckets in place, so a run of keys past either end
   costs amortized O(1) per key. *)
let grow t k =
  let len = Array.length t.k_counts in
  let lo, hi =
    if len = 0 then (k, k) else (min k t.k_base, max k (t.k_base + len - 1))
  in
  let new_len = max (hi - lo + 1) (max 64 (2 * len)) in
  let new_base =
    if len = 0 then k - (new_len / 2)
    else if k < t.k_base then hi + 1 - new_len
    else t.k_base
  in
  let counts = Array.make new_len 0 in
  if len > 0 then Array.blit t.k_counts 0 counts (t.k_base - new_base) len;
  t.k_counts <- counts;
  t.k_base <- new_base

let[@inline] bump t k n =
  if k < t.k_base || k - t.k_base >= Array.length t.k_counts then grow t k;
  let i = k - t.k_base in
  t.k_counts.(i) <- t.k_counts.(i) + n

let[@inline] add t v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg "Sketch.add: negative or non-finite value";
  let e = t.k_ext in
  if t.k_count = 0 then begin
    e.x_min <- v;
    e.x_max <- v
  end
  else begin
    if v < e.x_min then e.x_min <- v;
    if v > e.x_max then e.x_max <- v
  end;
  t.k_count <- t.k_count + 1;
  if v < zero_floor then t.k_zero <- t.k_zero + 1 else bump t (key t v) 1

let buckets t =
  let acc = ref [] in
  for i = Array.length t.k_counts - 1 downto 0 do
    let c = t.k_counts.(i) in
    if c > 0 then acc := (t.k_base + i, c) :: !acc
  done;
  !acc

(* Midpoint of bucket k in the relative-error metric: 2*gamma^k /
   (gamma + 1), within rel_err of every value the bucket holds. *)
let bucket_value t k =
  2.0 *. (t.k_gamma ** float_of_int k) /. (t.k_gamma +. 1.0)

let quantile_opt t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.k_count = 0 then None
  else begin
    let e = t.k_ext in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.k_count))) in
    if rank <= t.k_zero then Some 0.0
    else begin
      (* walk the buckets in key order until the cumulative count
         reaches the rank; the top bucket always does *)
      let remaining = ref (rank - t.k_zero) in
      let i = ref 0 in
      while !remaining > t.k_counts.(!i) do
        remaining := !remaining - t.k_counts.(!i);
        incr i
      done;
      let v = bucket_value t (t.k_base + !i) in
      Some (Float.min e.x_max (Float.max e.x_min v))
    end
  end

let quantile t q =
  match quantile_opt t q with
  | Some v -> v
  | None -> invalid_arg "Sketch.quantile: empty sketch (use quantile_opt)"

let merge a b =
  if a.k_rel_err <> b.k_rel_err then
    invalid_arg "Sketch.merge: mismatched rel_err";
  let t = create ~rel_err:a.k_rel_err () in
  let e = t.k_ext in
  let blend src =
    Array.iteri
      (fun i c -> if c > 0 then bump t (src.k_base + i) c)
      src.k_counts;
    t.k_zero <- t.k_zero + src.k_zero;
    if src.k_count > 0 then begin
      if t.k_count = 0 then begin
        e.x_min <- src.k_ext.x_min;
        e.x_max <- src.k_ext.x_max
      end
      else begin
        if src.k_ext.x_min < e.x_min then e.x_min <- src.k_ext.x_min;
        if src.k_ext.x_max > e.x_max then e.x_max <- src.k_ext.x_max
      end;
      t.k_count <- t.k_count + src.k_count
    end
  in
  blend a;
  blend b;
  t
