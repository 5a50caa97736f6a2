open Dapper_util
module Trace = Dapper_obs.Trace

type page_stats = {
  mutable srv_pages : int;
  mutable srv_ns : float;
  mutable srv_retransmits : int;
  mutable srv_backoff_ns : float;
}

type tx_stats = {
  mutable tx_attempts : int;
  mutable tx_retransmits : int;
  mutable tx_corrupt : int;
  mutable tx_dropped : int;
  mutable tx_fault_ns : float;
  mutable tx_backoff_ns : float;
}

type retry = {
  r_attempts : int;
  r_backoff_ns : float;
  r_multiplier : float;
  r_jitter : Rng.t option;
}

type kind = Scp | Page_server

type t = {
  t_kind : kind;
  t_link : Link.t;
  t_name : string;
  t_cost_factor : float;  (* >= 1.0; congestion/retransmission multiplier *)
  t_retry : retry option;
}

let scp link =
  { t_kind = Scp; t_link = link; t_name = "scp/" ^ link.Link.l_name;
    t_cost_factor = 1.0; t_retry = None }

let page_server link =
  { t_kind = Page_server; t_link = link;
    t_name = "page-server/" ^ link.Link.l_name; t_cost_factor = 1.0;
    t_retry = None }

let degraded ~factor t =
  if factor < 1.0 then invalid_arg "Transport.degraded: factor < 1.0";
  { t with
    t_name = Printf.sprintf "%s (degraded x%g)" t.t_name factor;
    t_cost_factor = t.t_cost_factor *. factor }

let retrying ?(attempts = 4) ?(backoff_ns = 2.0e6) ?(multiplier = 2.0) ?jitter t =
  if attempts < 1 then invalid_arg "Transport.retrying: attempts < 1";
  if multiplier < 1.0 then invalid_arg "Transport.retrying: multiplier < 1.0";
  { t with
    t_name = Printf.sprintf "retrying[%d](%s)" attempts t.t_name;
    t_retry = Some { r_attempts = attempts; r_backoff_ns = backoff_ns;
                     r_multiplier = multiplier;
                     r_jitter = Option.map Rng.create jitter } }

let name t = t.t_name
let link t = t.t_link
let is_lazy t = t.t_kind = Page_server

let attempts t = match t.t_retry with Some r -> r.r_attempts | None -> 1

(* Backoff before retry number [k] (0-based over failed attempts), on
   the deterministic simulated clock: the delay is charged as latency,
   never slept. With a jitter stream armed, the exponential envelope is
   decorrelated by a seeded factor in [0.5, 1.5) — each call draws once,
   so the schedule is replayable from the seed but two transports with
   different seeds never resynchronize their retries. *)
let backoff_ns t k =
  match t.t_retry with
  | None -> 0.0
  | Some r ->
    let base = r.r_backoff_ns *. (r.r_multiplier ** float_of_int k) in
    (match r.r_jitter with
     | None -> base
     | Some rng -> base *. (0.5 +. Rng.float rng))

(* Total backoff charged by a jitter-free policy that failed [failures]
   times and retried after each failure but the last: the closed-form
   geometric sum [sum_{k=0}^{failures-2} backoff * mult^k] (no backoff
   follows the final attempt). Computed directly — not via {!backoff_ns},
   which would advance a jitter stream — so with jitter armed this is
   the deterministic *envelope center*: actual charged backoff lies in
   [0.5, 1.5) times this value. *)
let total_backoff_ns t ~failures =
  match t.t_retry with
  | None -> 0.0
  | Some r ->
    let rec go k acc =
      if k >= failures - 1 then acc
      else go (k + 1) (acc +. (r.r_backoff_ns *. (r.r_multiplier ** float_of_int k)))
    in
    if failures <= 1 then 0.0 else go 0 0.0

let transfer_ns t bytes = Link.transfer_ns t.t_link bytes *. t.t_cost_factor
let page_fetch_ns t bytes = Link.page_fetch_ns t.t_link bytes *. t.t_cost_factor

let fresh_page_stats () =
  { srv_pages = 0; srv_ns = 0.0; srv_retransmits = 0; srv_backoff_ns = 0.0 }

let fresh_tx_stats () =
  { tx_attempts = 0; tx_retransmits = 0; tx_corrupt = 0; tx_dropped = 0;
    tx_fault_ns = 0.0; tx_backoff_ns = 0.0 }

let serve_pages t stats ~page_bytes fetch =
  if not (is_lazy t) then invalid_arg "Transport.serve_pages: not a lazy transport";
  fun pn ->
    match fetch pn with
    | None -> None
    | Some data ->
      let ns = page_fetch_ns t page_bytes in
      stats.srv_pages <- stats.srv_pages + 1;
      stats.srv_ns <- stats.srv_ns +. ns;
      Trace.leaf ~cat:"transport" "page-serve"
        ~args:[ ("page", string_of_int pn) ] ~dur_ns:ns;
      Some data

(* Cost-only sample of one demand page fetch under the fault plane: the
   round trips, injected delays and retry backoff {!fetch_page} would
   charge, without touching page contents. The live-traffic plane uses
   this to charge millions of per-request stalls without building
   images. Corrupt draws are counted as retransmissions (the cost model
   ignores the empty-payload lucky case), drops and corruptions past the
   attempt bound still cost their final round trip. Deterministic for a
   given fault schedule position. *)
let fetch_stall_ns t ?fault ~page_bytes () =
  if not (is_lazy t) then invalid_arg "Transport.fetch_stall_ns: not a lazy transport";
  let max_attempts = attempts t in
  let base = page_fetch_ns t page_bytes in
  let rec go k acc =
    let acc = acc +. base in
    let drawn =
      match fault with Some f -> Fault.draw f Fault.Page_fetch | None -> None
    in
    match drawn with
    | Some (Fault.Drop | Fault.Corrupt _) when k + 1 < max_attempts ->
      go (k + 1) (acc +. backoff_ns t k)
    | Some (Fault.Drop | Fault.Corrupt _) -> acc
    | Some (Fault.Delay ns) -> acc +. ns
    | Some Fault.Crash | None -> acc
  in
  go 0 0.0

(* ----- checksummed transmission under the fault plane ----- *)

(* One attempt at moving the named image files: every file is
   individually exposed to the fault plane (drop a chunk mid-image,
   corrupt bytes in flight, add latency), then verified against the
   sender-side FNV-1a manifest. *)
type attempt_outcome =
  | Delivered of (string * string) list
  | Lost of string         (* dropped mid-image *)
  | Damaged of string      (* checksum mismatch on arrival *)

let transmit_once ?fault ~stats ~manifest files cost =
  let dropped = ref None in
  let received =
    List.map
      (fun (name, data) ->
        match Option.bind fault (fun f -> Fault.draw f Fault.Transfer_chunk) with
        | Some Fault.Drop ->
          if !dropped = None then dropped := Some name;
          (name, data)
        | Some (Fault.Corrupt salt) ->
          let b = Bytes.of_string data in
          Fault.corrupt_byte salt b;
          (name, Bytes.to_string b)
        | Some (Fault.Delay ns) ->
          stats.tx_fault_ns <- stats.tx_fault_ns +. ns;
          Trace.advance ns;
          cost := !cost +. ns;
          (name, data)
        | Some Fault.Crash | None -> (name, data))
      files
  in
  match !dropped with
  | Some name ->
    stats.tx_dropped <- stats.tx_dropped + 1;
    Lost name
  | None ->
    let damaged =
      List.find_opt
        (fun (name, data) -> List.assoc name manifest <> Bytebuf.fnv64 data)
        received
    in
    (match damaged with
     | Some (name, _) ->
       stats.tx_corrupt <- stats.tx_corrupt + 1;
       Damaged name
     | None -> Delivered received)

let outcome_tag = function
  | Delivered _ -> "delivered"
  | Lost _ -> "lost"
  | Damaged _ -> "damaged"

let transmit t ?fault ~stats ~bytes files =
  let manifest = List.map (fun (name, data) -> (name, Bytebuf.fnv64 data)) files in
  let cost = ref 0.0 in
  let max_attempts = attempts t in
  let rec go k =
    stats.tx_attempts <- stats.tx_attempts + 1;
    let outcome =
      Trace.with_span ~cat:"transport" "tx-attempt"
        ~args:[ ("attempt", string_of_int (k + 1)) ]
        (fun cl ->
          cost := !cost +. transfer_ns t bytes;
          Trace.advance (transfer_ns t bytes);
          let outcome = transmit_once ?fault ~stats ~manifest files cost in
          Trace.add_arg cl "outcome" (outcome_tag outcome);
          outcome)
    in
    match outcome with
    | Delivered received -> Ok (received, !cost)
    | (Lost _ | Damaged _) as failed ->
      (* Backoff precedes a retry; when no retry will follow (attempts
         exhausted), no backoff is charged — the failed transfer
         surfaces immediately. *)
      if k + 1 < max_attempts then begin
        stats.tx_retransmits <- stats.tx_retransmits + 1;
        let b = backoff_ns t k in
        stats.tx_backoff_ns <- stats.tx_backoff_ns +. b;
        cost := !cost +. b;
        Trace.leaf ~cat:"transport" "tx-backoff"
          ~args:[ ("retry", string_of_int (k + 1)) ] ~dur_ns:b;
        go (k + 1)
      end
      else
        Error
          (match failed with
           | Lost name when max_attempts > 1 ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "image transfer dropped at %s; %d attempts exhausted on %s"
                  name max_attempts t.t_name)
           | Lost name ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "image transfer dropped at %s on %s" name t.t_name)
           | Damaged name when max_attempts > 1 ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "%s failed its checksum; %d attempts exhausted on %s"
                  name max_attempts t.t_name)
           | Damaged name ->
             Dapper_error.Checksum_mismatch
               (Printf.sprintf "%s corrupted in flight on %s" name t.t_name)
           | Delivered _ -> assert false)
  in
  go 0

(* ----- chunked producer/consumer pipelining ----- *)

type chunk = {
  ck_index : int;
  ck_bytes : int;
  ck_ready_ns : float;
  ck_start_ns : float;
  ck_tx_ns : float;
}

type pipe_stats = {
  pp_chunks : int;
  pp_recode_ns : float;
  pp_wire_ns : float;
  pp_stall_ns : float;
  pp_makespan_ns : float;
  pp_exposed_ns : float;
  pp_hidden_ns : float;
  pp_schedule : chunk list;
}

(* The overlap cost model: recode produces the image in [chunk_bytes]
   slices (each slice's share of the total [recode_ns] is proportional
   to its bytes) and the wire consumes them as they become ready —
   classic two-stage pipeline makespan:

     ready_i = sum of slice recode times 1..i
     start_i = max(ready_i, wire free time)
     wire    = start_i + per-chunk transfer cost

   Per-chunk transfer cost includes the link's per-transfer latency, so
   chunking is not free — the latency overhead is the price of overlap
   and the model exposes it honestly. With a single chunk the recurrence
   degenerates to [recode_ns + transfer_ns t bytes]: exactly the
   sequential pipeline. *)
let pipeline_schedule t ~bytes ~chunk_bytes ~recode_ns =
  if bytes < 0 then invalid_arg "Transport.pipeline_schedule: bytes < 0";
  if chunk_bytes < 1 then invalid_arg "Transport.pipeline_schedule: chunk_bytes < 1";
  if recode_ns < 0.0 then invalid_arg "Transport.pipeline_schedule: recode_ns < 0";
  let n = max 1 ((bytes + chunk_bytes - 1) / chunk_bytes) in
  let chunk_size k =
    if k < n - 1 then chunk_bytes else max 0 (bytes - (chunk_bytes * (n - 1)))
  in
  let total = float_of_int (max bytes 1) in
  let ready = ref 0.0 and wire_free = ref 0.0 and wire_busy = ref 0.0 in
  let sched = ref [] in
  for k = 0 to n - 1 do
    let b = chunk_size k in
    ready := !ready +. (recode_ns *. (float_of_int b /. total));
    let tx = transfer_ns t b in
    let start = Float.max !ready !wire_free in
    wire_free := start +. tx;
    wire_busy := !wire_busy +. tx;
    sched :=
      { ck_index = k; ck_bytes = b; ck_ready_ns = !ready; ck_start_ns = start;
        ck_tx_ns = tx }
      :: !sched
  done;
  let makespan = !wire_free in
  let exposed = makespan -. recode_ns in
  { pp_chunks = n;
    pp_recode_ns = recode_ns;
    pp_wire_ns = !wire_busy;
    pp_stall_ns = makespan -. !wire_busy;
    pp_makespan_ns = makespan;
    pp_exposed_ns = exposed;
    pp_hidden_ns = recode_ns +. !wire_busy -. makespan;
    pp_schedule = List.rev !sched }

(* Pipelined transmit: the same wire semantics as {!transmit} (faults,
   checksums, bounded retransmission — 2PC rollback on failure is
   untouched), but the returned cost is the transfer time left exposed
   once recode is overlapped under it. Fault delays and retransmissions
   are charged on top of the exposed time: they occur on a wire whose
   producer has already finished, so nothing hides them. Chunk spans are
   zero-duration markers (the modeled times ride in the args) so the
   trace clock is still charged exactly once, by the wire attempts. *)
let transmit_pipelined t ?fault ~stats ~bytes ~chunk_bytes ~recode_ns files =
  let sched = pipeline_schedule t ~bytes ~chunk_bytes ~recode_ns in
  if Trace.enabled () then
    List.iter
      (fun c ->
        Trace.leaf ~cat:"transport" "tx-chunk"
          ~args:
            [ ("chunk", string_of_int c.ck_index);
              ("bytes", string_of_int c.ck_bytes);
              ("ready_ms", Printf.sprintf "%.3f" (c.ck_ready_ns /. 1e6));
              ("start_ms", Printf.sprintf "%.3f" (c.ck_start_ns /. 1e6));
              ("tx_ms", Printf.sprintf "%.3f" (c.ck_tx_ns /. 1e6)) ]
          ~dur_ns:0.0)
      sched.pp_schedule;
  match transmit t ?fault ~stats ~bytes files with
  | Error _ as e -> e
  | Ok (received, actual_ns) ->
    (* surcharge over a clean single-attempt wire: injected delays,
       backoff, extra attempts *)
    let extra = Float.max 0.0 (actual_ns -. transfer_ns t bytes) in
    Ok (received, sched.pp_exposed_ns +. extra, sched)

let fetch_page t ?fault stats ~page_bytes fetch pn =
  if not (is_lazy t) then invalid_arg "Transport.fetch_page: not a lazy transport";
  let max_attempts = attempts t in
  let rec go k =
    match Option.bind fault (fun f -> Fault.draw f Fault.Source_node) with
    | Some Fault.Crash ->
      Error
        (Dapper_error.Source_lost
           (Printf.sprintf "page server unreachable fetching page %d" pn))
    | _ ->
      (match fetch pn with
       | None -> Ok None
       | Some data ->
         let digest b = Bytebuf.fnv64_bytes Bytebuf.fnv64_offset b 0 (Bytes.length b) in
         let checksum = digest data in
         let charge () = stats.srv_ns <- stats.srv_ns +. page_fetch_ns t page_bytes in
         let retry what =
           charge ();  (* the failed round trip still cost a round trip *)
           if k + 1 < max_attempts then begin
             stats.srv_retransmits <- stats.srv_retransmits + 1;
             (* as in [transmit]: backoff only when a retry follows *)
             let b = backoff_ns t k in
             stats.srv_ns <- stats.srv_ns +. b;
             stats.srv_backoff_ns <- stats.srv_backoff_ns +. b;
             go (k + 1)
           end
           else
             Error
               (Dapper_error.Transfer_timeout
                  (Printf.sprintf "page %d %s; %d attempts exhausted on %s" pn what
                     max_attempts t.t_name))
         in
         (match Option.bind fault (fun f -> Fault.draw f Fault.Page_fetch) with
          | Some Fault.Drop -> retry "dropped"
          | Some (Fault.Corrupt salt) ->
            let damaged = Bytes.copy data in
            Fault.corrupt_byte salt damaged;
            if digest damaged <> checksum then
              retry "failed its checksum"
            else begin
              (* the flip landed on an empty payload: delivered intact *)
              charge ();
              stats.srv_pages <- stats.srv_pages + 1;
              Ok (Some damaged)
            end
          | Some (Fault.Delay ns) ->
            stats.srv_ns <- stats.srv_ns +. ns;
            charge ();
            stats.srv_pages <- stats.srv_pages + 1;
            Ok (Some data)
          | Some Fault.Crash | None ->
            charge ();
            stats.srv_pages <- stats.srv_pages + 1;
            Ok (Some data)))
  in
  (* One leaf span per fetch whose duration is exactly what this fetch
     added to [srv_ns] (round trips, injected delays, retry backoff). *)
  let ns0 = stats.srv_ns in
  let r = go 0 in
  let ns = stats.srv_ns -. ns0 in
  Trace.leaf ~cat:"transport" "page-fetch"
    ~args:[ ("page", string_of_int pn) ] ~dur_ns:ns;
  r
