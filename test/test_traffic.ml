(* Live-traffic plane tests: quantile-sketch accuracy against an exact
   sort oracle (property-based, adversarial inputs), pre-copy dirty-page
   convergence over random write sets, downtime-budget policy, arrival
   process determinism, and golden fingerprints pinning the fig7-live
   latency traces byte-identical per seed. *)

open Dapper_machine
open Dapper_net
open Dapper_traffic
module Link = Dapper_codegen.Link
module Netlink = Dapper_net.Link
module Session = Dapper.Session
module Layout = Dapper_binary.Layout
module Rng = Dapper_util.Rng

let check = Alcotest.check

(* ----- quantile sketch vs the exact nearest-rank oracle ----- *)

(* The oracle the sketch's accuracy contract is stated against: sort,
   then nearest rank [max 1 (ceil (q * n))]. *)
let exact_quantile values q =
  let sorted = List.sort Float.compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_quantiles = [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let check_sketch_against_oracle ~what ?(rel_err = 0.01) values =
  let s = Sketch.create ~rel_err () in
  List.iter (Sketch.add s) values;
  if Sketch.count s <> List.length values then
    Alcotest.failf "%s: count %d <> %d" what (Sketch.count s)
      (List.length values);
  List.iter
    (fun q ->
      let exact = exact_quantile values q in
      let est = Sketch.quantile s q in
      let bound = (rel_err *. Float.abs exact) +. 1e-9 in
      if Float.abs (est -. exact) > bound then
        Alcotest.failf "%s: q=%g est=%.9g exact=%.9g (bound %.3g)" what q est
          exact bound)
    test_quantiles

(* Adversarial input shapes: uniform random, pre-sorted (ascending and
   descending), constant, heavy-tailed (Pareto-like u^-2, spans many
   orders of magnitude), and a zero-spiked mix. *)
let gen_values =
  QCheck.Gen.(
    let n = int_range 1 400 in
    let shaped shape =
      n >>= fun len ->
      list_repeat len (float_range 0.0 1.0) >|= fun us ->
      let us = List.map (fun u -> Float.min u 0.999999) us in
      match shape with
      | `Uniform -> List.map (fun u -> u *. 1000.0) us
      | `Sorted -> List.sort Float.compare (List.map (fun u -> u *. 1000.0) us)
      | `Rev_sorted ->
        List.sort (fun a b -> Float.compare b a)
          (List.map (fun u -> u *. 1000.0) us)
      | `Constant -> List.map (fun _ -> 42.125) us
      | `Heavy -> List.map (fun u -> (1.0 -. u) ** -2.0) us
      | `Zero_spiked ->
        List.map (fun u -> if u < 0.3 then 0.0 else u *. 10.0) us
    in
    oneofl [ `Uniform; `Sorted; `Rev_sorted; `Constant; `Heavy; `Zero_spiked ]
    >>= shaped)

let arb_values =
  QCheck.make
    ~print:(fun vs ->
      Printf.sprintf "[%s]"
        (String.concat "; " (List.map (Printf.sprintf "%.9g") vs)))
    gen_values

let qcheck_sketch_rank_error =
  QCheck.Test.make ~count:300 ~name:"sketch quantiles within rel_err of sort oracle"
    arb_values
    (fun values ->
      check_sketch_against_oracle ~what:"sketch" values;
      check_sketch_against_oracle ~what:"sketch(5%)" ~rel_err:0.05 values;
      true)

(* Merge: exact bucket-wise addition — associative, commutative, and
   identical to adding the values one by one. *)
let sketch_of values =
  let s = Sketch.create () in
  List.iter (Sketch.add s) values;
  s

let sketch_repr s =
  (Sketch.buckets s, Sketch.zero_count s, Sketch.count s)

let qcheck_sketch_merge_associative =
  QCheck.Test.make ~count:200 ~name:"sketch merge is associative and lossless"
    (QCheck.triple arb_values arb_values arb_values)
    (fun (a, b, c) ->
      let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
      let left = Sketch.merge (Sketch.merge sa sb) sc in
      let right = Sketch.merge sa (Sketch.merge sb sc) in
      let flat = sketch_of (a @ b @ c) in
      sketch_repr left = sketch_repr right
      && sketch_repr left = sketch_repr flat
      && sketch_repr (Sketch.merge sa sb) = sketch_repr (Sketch.merge sb sa))

(* Buckets against a naive model: an association list keyed by the same
   log-gamma formula, queried by the same nearest-rank walk. The inputs
   span the whole key range, from just above the zero floor (key about
   -1040) to near 1e300 (about +34.5k), so the dense bucket array has to
   grow at both ends. *)
let model_gamma = (1.0 +. 0.01) /. (1.0 -. 0.01)
let model_key v = int_of_float (Float.ceil (Float.log v /. Float.log model_gamma))

let model_of values =
  let zero = List.length (List.filter (fun v -> v < 1e-9) values) in
  let buckets =
    List.fold_left
      (fun acc v ->
        if v < 1e-9 then acc
        else
          let k = model_key v in
          match List.assoc_opt k acc with
          | Some c -> (k, c + 1) :: List.remove_assoc k acc
          | None -> (k, 1) :: acc)
      [] values
  in
  (List.sort compare buckets, zero)

let model_quantile values q =
  let buckets, zero = model_of values in
  let n = List.length values in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  if rank <= zero then 0.0
  else begin
    let rec walk remaining = function
      | (k, c) :: rest ->
        if remaining - c <= 0 then
          2.0 *. (model_gamma ** float_of_int k) /. (model_gamma +. 1.0)
        else walk (remaining - c) rest
      | [] -> Alcotest.fail "model: rank past the last bucket"
    in
    let v = walk (rank - zero) buckets in
    let lo = List.fold_left Float.min infinity values in
    let hi = List.fold_left Float.max neg_infinity values in
    Float.min hi (Float.max lo v)
  end

let agrees_with_model s values =
  let buckets, zero = model_of values in
  Sketch.buckets s = buckets
  && Sketch.zero_count s = zero
  && Sketch.count s = List.length values
  && (values = []
     || List.for_all
          (fun q -> Sketch.quantile s q = model_quantile values q)
          test_quantiles)

let gen_tiny = QCheck.Gen.(float_range 0.0 1.0 >|= fun u -> 1e-9 *. (1.0 +. u))
let gen_huge = QCheck.Gen.(float_range 0.0 1.0 >|= fun u -> 1e300 *. (1.0 +. (100.0 *. u)))

(* Descending, then ascending: the first half pushes the array's lower
   end down, the second its upper end up. *)
let gen_spread_values =
  QCheck.Gen.(
    let value =
      frequency
        [ (3, gen_tiny); (3, gen_huge);
          (3, float_range (-9.0) 300.0 >|= fun e -> 10.0 ** e);
          (1, float_range 0.0 1e-9) ]
    in
    pair (list_size (int_range 0 60) value) (list_size (int_range 0 60) value)
    >|= fun (down, up) ->
    List.sort (fun a b -> Float.compare b a) down @ List.sort Float.compare up)

let print_values vs =
  Printf.sprintf "[%s]" (String.concat "; " (List.map (Printf.sprintf "%h") vs))

let qcheck_sketch_dense_buckets =
  QCheck.Test.make ~count:200 ~name:"sketch buckets match a naive model"
    (QCheck.make ~print:print_values gen_spread_values)
    (fun values -> agrees_with_model (sketch_of values) values)

let qcheck_sketch_disjoint_merge =
  QCheck.Test.make ~count:200
    ~name:"sketch merge of disjoint key ranges matches the model"
    (QCheck.make
       ~print:(fun (a, b) -> print_values a ^ " ++ " ^ print_values b)
       QCheck.Gen.(
         pair (list_size (int_range 0 40) gen_tiny)
           (list_size (int_range 0 40) gen_huge)))
    (fun (tiny, huge) ->
      let st = sketch_of tiny and sh = sketch_of huge in
      agrees_with_model (Sketch.merge st sh) (tiny @ huge)
      && agrees_with_model (Sketch.merge sh st) (huge @ tiny))

let test_sketch_edges () =
  let s = Sketch.create () in
  (try
     ignore (Sketch.quantile s 0.5);
     Alcotest.fail "empty quantile accepted"
   with Invalid_argument _ -> ());
  check Alcotest.bool "empty quantile_opt is None" true
    (Sketch.quantile_opt s 0.5 = None);
  (* a single sample answers every quantile with itself *)
  let one = Sketch.create () in
  Sketch.add one 7.25;
  check (Alcotest.float 1e-6) "single-sample p0" 7.25 (Sketch.quantile one 0.0);
  check (Alcotest.float 1e-6) "single-sample p50" 7.25 (Sketch.quantile one 0.5);
  check (Alcotest.float 1e-6) "single-sample p100" 7.25
    (Sketch.quantile one 1.0);
  check Alcotest.bool "single-sample quantile_opt is Some" true
    (Sketch.quantile_opt one 0.5 = Some (Sketch.quantile one 0.5));
  Sketch.add s 0.0;
  check (Alcotest.float 0.0) "zero-only p50" 0.0 (Sketch.quantile s 0.5);
  (try
     Sketch.add s (-1.0);
     Alcotest.fail "negative value accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Sketch.quantile s 1.5);
     Alcotest.fail "q > 1 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Sketch.merge s (Sketch.create ~rel_err:0.02 ()));
     Alcotest.fail "mismatched rel_err merged"
   with Invalid_argument _ -> ())

(* ----- pre-copy dirty-page convergence ----- *)

let precopy_config c =
  Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm

let loaded_source c =
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  p

(* The candidate page set pre-copy round 1 ships: learned by running a
   no-write pre-copy (one round, everything lands resident). *)
let candidate_pages c =
  let p = loaded_source c in
  let st =
    Session.precopy (precopy_config c) p
      ~advance:(fun _ -> ())
      ~max_rounds:5 ~downtime_budget_ms:0.0
  in
  check Alcotest.int "no-write pre-copy is one round" 1
    (List.length st.Session.pcs_rounds);
  check
    Alcotest.(list int)
    "no-write pre-copy leaves nothing residual" [] st.Session.pcs_residual;
  st.Session.pcs_resident

let poke_pages p pages =
  List.iter
    (fun pn ->
      let addr = Int64.of_int (pn * Layout.page_size) in
      Process.poke_data p addr 0xD1A7_F00DL)
    pages

(* Random sub-multiset of the candidate pages (indices may repeat) plus
   a writer mode: [`Every_round] keeps re-dirtying the same set —
   pre-copy must stop on the non-shrinking rule and hand the set over as
   residual; [`First_round_only] dirties once — pre-copy must converge
   with an empty residual. *)
let gen_write_set candidates =
  QCheck.Gen.(
    let n = List.length candidates in
    pair
      (list_size (int_range 0 (max 1 (n - 1)))
         (int_range 0 (n - 1) >|= List.nth candidates))
      (oneofl [ `Every_round; `First_round_only ]))

let arb_write_set candidates =
  QCheck.make
    ~print:(fun (pages, mode) ->
      Printf.sprintf "%s %s"
        (match mode with
         | `Every_round -> "every-round"
         | `First_round_only -> "first-round-only")
        (String.concat "," (List.map string_of_int pages)))
    (gen_write_set candidates)

let qcheck_precopy_convergence c candidates =
  QCheck.Test.make ~count:60
    ~name:"pre-copy converges; no dirtied page is lost" (arb_write_set candidates)
    (fun (pages, mode) ->
      let w = List.sort_uniq Int.compare pages in
      let p = loaded_source c in
      let calls = ref 0 in
      let st =
        Session.precopy (precopy_config c) p
          ~advance:(fun _ ->
            incr calls;
            match mode with
            | `Every_round -> poke_pages p w
            | `First_round_only -> if !calls = 1 then poke_pages p w)
          ~max_rounds:5 ~downtime_budget_ms:0.0
      in
      check Alcotest.bool "tracking disabled on exit" false
        (Memory.tracking_dirty p.Process.mem);
      let resident = st.Session.pcs_resident
      and residual = st.Session.pcs_residual in
      (* resident/residual partition the candidate set exactly *)
      check
        Alcotest.(list int)
        "resident + residual = candidates" candidates
        (List.sort Int.compare (resident @ residual));
      check Alcotest.bool "resident and residual disjoint" true
        (List.for_all (fun pn -> not (List.mem pn residual)) resident);
      let rounds = List.length st.Session.pcs_rounds in
      check Alcotest.bool "round count within cap" true
        (rounds >= 1 && rounds <= 5);
      (* every round's page count is accounted in the multiset total *)
      check Alcotest.int "pages_sent is the sum over rounds"
        (List.fold_left
           (fun a r -> a + r.Session.pr_pages)
           0 st.Session.pcs_rounds)
        st.Session.pcs_pages_sent;
      (match mode with
       | `Every_round ->
         (* the permanently-hot set must come out residual: transferred
            rounds ∪ residual ⊇ dirtied pages, with nothing lost *)
         check Alcotest.(list int) "hot set handed over as residual" w residual
       | `First_round_only ->
         check Alcotest.(list int) "one-shot dirty set converges" [] residual;
         if w <> [] then
           check Alcotest.int "dirtied pages were re-shipped, not lost"
             (List.length candidates + List.length w)
             st.Session.pcs_pages_sent);
      true)

(* ----- downtime-budget policy ----- *)

let test_budget_policy () =
  let e =
    { Budget.e_image_bytes = 1_000_000;
      e_residual_bytes = 50_000;
      e_fixed_ms = 40.0;
      e_lazy_fixed_ms = 12.0;
      e_wire_ns_per_byte = 100.0 }
  in
  (* wire: 0.1 ms per 1000 bytes -> image 100 ms, residual 5 ms *)
  check (Alcotest.float 1e-9) "vanilla downtime" 140.0
    (Budget.downtime_ms e Budget.Vanilla);
  check (Alcotest.float 1e-9) "precopy downtime" 45.0
    (Budget.downtime_ms e Budget.Precopy);
  check (Alcotest.float 1e-9) "hybrid downtime" 12.0
    (Budget.downtime_ms e Budget.Hybrid);
  let name b = Budget.mechanism_name (Budget.choose ~budget_ms:b e) in
  check Alcotest.string "generous budget -> vanilla" "vanilla" (name 200.0);
  check Alcotest.string "medium budget -> precopy" "precopy" (name 60.0);
  check Alcotest.string "tight budget -> hybrid" "hybrid" (name 20.0);
  check Alcotest.string "impossible budget -> least-bad" "hybrid" (name 1.0);
  (* monotone: a larger budget never picks a mechanism later in the
     preference order *)
  let order m =
    match Budget.mechanism_name m with
    | "vanilla" -> 0 | "precopy" -> 1 | "hybrid" -> 2 | _ -> 3
  in
  let budgets = [ 1.0; 5.0; 11.0; 12.0; 44.0; 45.0; 100.0; 139.0; 140.0; 500.0 ] in
  List.iter2
    (fun lo hi ->
      check Alcotest.bool
        (Printf.sprintf "choice at %.0f no later than at %.0f" hi lo)
        true
        (order (Budget.choose ~budget_ms:hi e)
         <= order (Budget.choose ~budget_ms:lo e)))
    (List.filteri (fun i _ -> i < List.length budgets - 1) budgets)
    (List.tl budgets);
  check Alcotest.bool "round-trip names" true
    (List.for_all
       (fun m -> Budget.mechanism_of_string (Budget.mechanism_name m) = Some m)
       Budget.all_mechanisms)

(* ----- arrival process ----- *)

let test_arrival_deterministic () =
  let take n a = List.init n (fun _ -> Arrival.next a) in
  let states = [| (2.0, 30.0); (8.0, 10.0) |] in
  let a1 = take 5_000 (Arrival.mmpp ~seed:7L states) in
  let a2 = take 5_000 (Arrival.mmpp ~seed:7L states) in
  check Alcotest.bool "same seed, same arrival stream" true (a1 = a2);
  let a3 = take 5_000 (Arrival.mmpp ~seed:8L states) in
  check Alcotest.bool "different seed, different stream" true (a1 <> a3);
  check Alcotest.bool "arrivals nondecreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, 0.0) a1));
  (* empirical rate within 10% of the hold-weighted mean *)
  let a = Arrival.mmpp ~seed:42L states in
  let n = 200_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := Arrival.next a
  done;
  let measured = float_of_int n /. !last in
  let expected = Arrival.mean_rate_per_ms a in
  check Alcotest.bool
    (Printf.sprintf "mean rate %.3f within 10%% of %.3f" measured expected)
    true
    (Float.abs (measured -. expected) /. expected < 0.10);
  check (Alcotest.float 1e-9) "hold-weighted mean rate" 3.5 expected;
  (try
     ignore (Arrival.mmpp ~seed:1L [||]);
     Alcotest.fail "empty state set accepted"
   with Invalid_argument _ -> ())

(* ----- golden fingerprints: the fig7-live latency traces ----- *)

(* A trimmed fig7-live: the compute workload under open-loop load with a
   real migration, small enough for the test suite, deterministic enough
   to pin byte-identical per seed. *)
let live_cfg ~seed ~requests =
  { Loadgen.lg_seed = seed;
    lg_requests = requests;
    lg_clients = 200_000;
    lg_client_rps = 0.25;  (* 50 requests per ms *)
    lg_mmpp = Some [| (0.8, 90.0); (1.6, 30.0) |];
    lg_lanes = 4;
    lg_service_src_ms = 0.02;
    lg_service_dst_ms = 0.056;
    lg_migrate_at_ms = 150.0;
    lg_max_rounds = 4;
    lg_downtime_budget_ms = 5.0;
    lg_round_instrs = 50_000;
    lg_racks = Some (Rack.create ~racks:2 ~servers_each:2);
    lg_rack = 0 }

let live_session_cfg c ~reverse =
  let src_bin, dst_bin =
    if reverse then (c.Link.cp_arm, c.Link.cp_x86)
    else (c.Link.cp_x86, c.Link.cp_arm)
  in
  (* scale bytes like the bench (bytes_scale) so the wire actually
     matters: on the raw toy image the blackout is all fixed cost and
     the mechanisms are indistinguishable *)
  let cfg =
    { (Session.default_config ~src_bin ~dst_bin) with
      Session.cfg_bytes_scale = 1500.0 }
  in
  if reverse then
    { cfg with
      Session.cfg_src_node = Node.rpi;
      cfg_dst_node = Node.xeon;
      cfg_recode_node = Node.rpi }
  else cfg

let live_run ~seed ~reverse mech =
  let c = Registry_helpers.compute () in
  let p =
    Process.load (if reverse then c.Link.cp_arm else c.Link.cp_x86)
  in
  ignore (Process.run p ~max_instrs:120_000);
  match
    Loadgen.run (live_cfg ~seed ~requests:30_000) (live_session_cfg c ~reverse)
      p mech
  with
  | Ok st -> st
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)

(* Pinned outputs, keyed by (mechanism, seed, reverse): regenerate with
     dune exec test/test_main.exe -- test traffic
   after an intentional model change, and update here. Hybrid is pinned
   at both seeds in both directions; each other mechanism once, so every
   timeline shape the request loop plays (no pre-copy window, a pre-copy
   window, a fault tail with and without one) is covered. *)
let golden_lines =
  [ ( (Budget.Hybrid, 0x5EEDL, false),
      "hybrid n=30000 stalled=14201 faulted=2 blackout=193.675250 \
       p50=102.524761 p99=198.368486 p999=198.368486 mig-p50=152.951010 \
       mig-p99=198.368486 mig-p999=198.368486 fp=067e3c449490b6cb" );
    ( (Budget.Hybrid, 0x5EEDL, true),
      "hybrid n=30000 stalled=21410 faulted=2 blackout=689.557205 \
       p50=595.953718 p99=694.758518 p999=694.758518 mig-p50=632.806704 \
       mig-p99=694.758518 mig-p999=694.758518 fp=614d565f7b0d46f0" );
    ( (Budget.Hybrid, 0xFACE_0FFL, false),
      "hybrid n=30000 stalled=13164 faulted=2 blackout=193.675250 \
       p50=117.932097 p99=190.590092 p999=194.440397 mig-p50=162.409297 \
       mig-p99=194.440397 mig-p999=194.440397 fp=58a4fed6d525878b" );
    ( (Budget.Hybrid, 0xFACE_0FFL, true),
      "hybrid n=30000 stalled=23946 faulted=2 blackout=689.557205 \
       p50=607.993187 p99=685.513147 p999=685.513147 mig-p50=620.275878 \
       mig-p99=685.513147 mig-p999=685.513147 fp=6862e187e042712f" );
    ( (Budget.Vanilla, 0x5EEDL, false),
      "vanilla n=30000 stalled=16032 faulted=0 blackout=290.770387 \
       p50=223.660738 p99=290.074855 p999=290.074855 mig-p50=267.772126 \
       mig-p99=290.074855 mig-p999=290.074855 fp=d45b65ea03ce06b9" );
    ( (Budget.Precopy, 0x5EEDL, false),
      "precopy n=30000 stalled=17586 faulted=0 blackout=248.662388 \
       p50=156.040929 p99=247.184167 p999=249.913955 mig-p50=186.816031 \
       mig-p99=247.184167 mig-p999=249.913955 fp=12164a708c2a47a9" );
    ( (Budget.Postcopy, 0x5EEDL, false),
      "lazy n=30000 stalled=12701 faulted=3 blackout=228.615250 \
       p50=169.037572 p99=232.788816 p999=232.788816 mig-p50=223.660738 \
       mig-p99=232.788816 mig-p999=232.788816 fp=2b4bb74f73f4a90b" ) ]

let test_golden_fingerprints () =
  List.iter
    (fun ((mech, seed, reverse), want) ->
      let st = live_run ~seed ~reverse mech in
      let got = Loadgen.fingerprint_line st in
      check Alcotest.string
        (Printf.sprintf "%s %s seed=%Lx" (Budget.mechanism_name mech)
           (if reverse then "arm->x86" else "x86->arm")
           seed)
        want got)
    golden_lines

let test_same_seed_byte_identical () =
  let a = live_run ~seed:77L ~reverse:false Budget.Postcopy in
  let b = live_run ~seed:77L ~reverse:false Budget.Postcopy in
  check Alcotest.string "same seed, same trace"
    (Loadgen.fingerprint_line a) (Loadgen.fingerprint_line b);
  let c = live_run ~seed:78L ~reverse:false Budget.Postcopy in
  check Alcotest.bool "different seed, different fingerprint" true
    (a.Loadgen.ls_fingerprint <> c.Loadgen.ls_fingerprint)

(* An out-of-range rack is a configuration error: rejected before
   anything migrates, not by the first post-copy fault after the commit
   (nor accepted silently by an eager mechanism, which never faults). *)
let test_rack_out_of_range () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let before = Process.observe p in
  (* [live_cfg]'s pool has 2 racks *)
  let cfg = { (live_cfg ~seed:1L ~requests:1_000) with Loadgen.lg_rack = 2 } in
  (match Loadgen.run cfg (live_session_cfg c ~reverse:false) p Budget.Vanilla with
   | exception Invalid_argument _ -> ()
   | Ok _ | Error _ -> Alcotest.fail "lg_rack outside lg_racks accepted");
  check Alcotest.bool "source untouched" true
    (Process.state_equal before (Process.observe p));
  check Alcotest.bool "source still running" false (Process.all_quiescent p)

(* Pages a commit drain already pulled are resident at the resume: the
   fault tail may only charge what is still owed. *)
let test_commit_drain_shrinks_fault_tail () =
  let c = Registry_helpers.compute () in
  let run ~drain =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:120_000);
    let scfg =
      { (live_session_cfg c ~reverse:false) with
        Session.cfg_commit_drain = drain }
    in
    match
      Loadgen.run (live_cfg ~seed:0x5EEDL ~requests:30_000) scfg p
        Budget.Postcopy
    with
    | Ok st -> st
    | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  in
  let undrained = run ~drain:false and drained = run ~drain:true in
  let pulled = drained.Loadgen.ls_outcome.Session.r_drained in
  check Alcotest.bool "the drain pulled pages" true (pulled > 0);
  check Alcotest.int "owed = restore debt - drained"
    (undrained.Loadgen.ls_lazy_left - pulled)
    drained.Loadgen.ls_lazy_left;
  check Alcotest.bool "faults never exceed the pages still owed" true
    (drained.Loadgen.ls_faulted <= drained.Loadgen.ls_lazy_left)

(* The acceptance claim of the live plane: hybrid copy degrades the
   during-migration tail less than stop-and-copy. *)
let test_hybrid_beats_vanilla_tail () =
  let v = live_run ~seed:0xBEEFL ~reverse:false Budget.Vanilla in
  let h = live_run ~seed:0xBEEFL ~reverse:false Budget.Hybrid in
  let p99 st =
    if Sketch.count st.Loadgen.ls_during = 0 then 0.0
    else Sketch.quantile st.Loadgen.ls_during 0.99
  in
  check Alcotest.bool "both saw stalled requests" true
    (Sketch.count v.Loadgen.ls_during > 0
     && Sketch.count h.Loadgen.ls_during > 0);
  check Alcotest.bool
    (Printf.sprintf "hybrid mig-p99 %.3f < vanilla mig-p99 %.3f" (p99 h) (p99 v))
    true
    (p99 h < p99 v);
  check Alcotest.bool "hybrid blackout shorter" true
    (h.Loadgen.ls_blackout_ms < v.Loadgen.ls_blackout_ms)

let suites =
  let c = Registry_helpers.compute () in
  let candidates = candidate_pages c in
  [ ( "traffic",
      [ QCheck_alcotest.to_alcotest qcheck_sketch_rank_error;
        QCheck_alcotest.to_alcotest qcheck_sketch_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_sketch_dense_buckets;
        QCheck_alcotest.to_alcotest qcheck_sketch_disjoint_merge;
        Alcotest.test_case "sketch edge cases" `Quick test_sketch_edges;
        QCheck_alcotest.to_alcotest (qcheck_precopy_convergence c candidates);
        Alcotest.test_case "downtime-budget policy" `Quick test_budget_policy;
        Alcotest.test_case "arrival process" `Quick test_arrival_deterministic;
        Alcotest.test_case "golden fingerprints (2 seeds x 2 directions, every mechanism)" `Quick
          test_golden_fingerprints;
        Alcotest.test_case "same seed is byte-identical" `Quick
          test_same_seed_byte_identical;
        Alcotest.test_case "hybrid beats vanilla during-migration p99" `Quick
          test_hybrid_beats_vanilla_tail;
        Alcotest.test_case "out-of-range rack rejected before migrating"
          `Quick test_rack_out_of_range;
        Alcotest.test_case "commit drain shrinks the fault tail" `Quick
          test_commit_drain_shrinks_fault_tail ] ) ]
