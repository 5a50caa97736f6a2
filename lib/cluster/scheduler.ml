open Dapper_util
open Dapper_net

type job_kind = {
  jk_name : string;
  jk_xeon_ms : float;
  jk_rpi_ms : float;
  jk_migration_ms : float;
}

type config = {
  c_window_ms : float;
  c_xeon_slots : int;
  c_rpis : int;
  c_rpi_slots_each : int;
}

type result = {
  r_jobs_done : int;
  r_jobs_xeon : int;
  r_jobs_rpi : int;
  r_energy_kj : float;
  r_jobs_per_kj : float;
  r_throughput_per_min : float;
}

let job_kind_of_session ~name ~xeon_ms ~rpi_ms ~times =
  { jk_name = name; jk_xeon_ms = xeon_ms; jk_rpi_ms = rpi_ms;
    jk_migration_ms = Dapper.Session.total_ms times }

let default_window_ms = 30.0 *. 60.0 *. 1000.0

type slot = { s_idx : int; s_is_rpi : bool; mutable s_busy_ms : float }

(* Discrete-event loop: each slot pulls the next job from the infinite
   round-robin queue the moment it frees up; a job counts if it finishes
   inside the window. Pi slots pay the eviction (migration) overhead on
   every job, as in the paper's setup where the scheduler moves the job
   to the board after it started on the loaded server.

   Slot free times live in an {!Event_heap} keyed by slot index, so each
   dispatch is O(log slots) instead of the former O(slots) fold — and
   the (time, key) tie-break reproduces that fold's hand-out exactly:
   jobs go to the earliest-freeing slot, earliest slot index on ties, so
   queue-order job hand-out is unchanged at any fleet size. *)
let run config kinds =
  if kinds = [] then invalid_arg "Scheduler.run: no job kinds";
  let kinds = Array.of_list kinds in
  let n_slots = config.c_xeon_slots + (config.c_rpis * config.c_rpi_slots_each) in
  let slots =
    Array.init n_slots (fun i ->
        { s_idx = i; s_is_rpi = i >= config.c_xeon_slots; s_busy_ms = 0.0 })
  in
  let heap = Event_heap.create ~capacity:n_slots () in
  Array.iter (fun s -> Event_heap.push heap ~key:s.s_idx ~time:0.0 s) slots;
  let queue_pos = ref 0 in
  let next_kind () =
    let k = kinds.(!queue_pos mod Array.length kinds) in
    incr queue_pos;
    k
  in
  let done_total = ref 0 and done_xeon = ref 0 and done_rpi = ref 0 in
  (* jobs are handed out in queue order: always serve the slot that frees
     up earliest (stable tie-break on slot order) *)
  let rec loop () =
    match Event_heap.pop heap with
    | None -> ()
    | Some (free_at, slot) ->
      if free_at >= config.c_window_ms then ()
      else begin
        let kind = next_kind () in
        let dur =
          if slot.s_is_rpi then kind.jk_rpi_ms +. kind.jk_migration_ms else kind.jk_xeon_ms
        in
        let finish = free_at +. dur in
        if finish <= config.c_window_ms then begin
          incr done_total;
          if slot.s_is_rpi then incr done_rpi else incr done_xeon;
          slot.s_busy_ms <- slot.s_busy_ms +. dur
        end
        else
          (* partial job at the window edge still burns the remaining time *)
          slot.s_busy_ms <- slot.s_busy_ms +. (config.c_window_ms -. free_at);
        Event_heap.push heap ~key:slot.s_idx ~time:finish slot;
        loop ()
      end
  in
  loop ();
  (* Energy: idle power over the whole window per machine, plus per-core
     active power over busy time. *)
  let window_s = config.c_window_ms /. 1000.0 in
  let xeon_busy_s =
    Array.fold_left (fun acc s -> if s.s_is_rpi then acc else acc +. (s.s_busy_ms /. 1000.0))
      0.0 slots
  in
  let rpi_busy_s =
    Array.fold_left (fun acc s -> if s.s_is_rpi then acc +. (s.s_busy_ms /. 1000.0) else acc)
      0.0 slots
  in
  let energy_j =
    (Node.xeon.Node.n_idle_w *. window_s)
    +. (Node.xeon.Node.n_core_w *. xeon_busy_s)
    +. (float_of_int config.c_rpis *. Node.rpi.Node.n_idle_w *. window_s)
    +. (Node.rpi.Node.n_core_w *. rpi_busy_s)
  in
  let energy_kj = energy_j /. 1000.0 in
  { r_jobs_done = !done_total;
    r_jobs_xeon = !done_xeon;
    r_jobs_rpi = !done_rpi;
    r_energy_kj = energy_kj;
    r_jobs_per_kj = float_of_int !done_total /. energy_kj;
    r_throughput_per_min = float_of_int !done_total /. (config.c_window_ms /. 60_000.0) }

let efficiency_gain_pct ~baseline ~subject =
  100.0 *. ((subject.r_jobs_per_kj /. baseline.r_jobs_per_kj) -. 1.0)

let throughput_gain_pct ~baseline ~subject =
  100.0 *. ((float_of_int subject.r_jobs_done /. float_of_int baseline.r_jobs_done) -. 1.0)
