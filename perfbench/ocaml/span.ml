(* Benchmark-side spans on the host monotonic clock.

   A span wraps one call into the library from outside. Spans are kept in
   memory while the traced pass runs and written out when it ends; nothing
   here touches the simulator's own (simulated-clock) trace. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  parent : int;          (* -1 for a top-level span *)
  op : int;              (* the benchmark op the span belongs to *)
  name : string;
  start_ns : int;
  end_ns : int;
  words : float;         (* minor words allocated inside the span *)
}

let enabled = ref false
let current_op = ref (-1)
let recorded : t list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let reset () =
  recorded := [];
  next_id := 0;
  open_spans := []

let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      open_spans := List.tl !open_spans;
      recorded :=
        { id; parent; op = !current_op; name; start_ns = t0; end_ns = t1;
          words = w1 -. w0 }
        :: !recorded
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

let all () = List.rev !recorded

(* Duration minus the part covered by direct children. Children of one
   span run one after another, so their durations add up. *)
let self_times spans =
  let child_ns = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_ns (float_of_int (s.end_ns - s.start_ns));
        add child_words s.words
      end)
    spans;
  List.map
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      (s, float_of_int (s.end_ns - s.start_ns) -. get child_ns, s.words -. get child_words))
    spans

let write path spans =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_ns\tend_ns\tminor_words\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" s.id s.parent s.op s.name
        s.start_ns s.end_ns s.words)
    spans;
  close_out oc
