module Event = Cgc_obs.Event
module Stats = Cgc_util.Stats

type tracer = {
  tid : int;
  increments : int;
  busy_ms : float;
  slots : int;
  bg_chunks : int;
  bg_slots : int;
  gets : int;
  puts : int;
  steals : int;
  defers : int;
}

type balance = {
  tracers : tracer list;
  busy_mean_ms : float;
  busy_stddev_ms : float;
  busy_cv : float;
  slots_mean : float;
  slots_stddev : float;
  slots_cv : float;
  factor_mean : float;
  factor_stddev : float;
  factor_count : int;
  fairness : float;
  fairness_cycles : int;
}

type pauses = {
  pause_count : int;
  pause_mean_ms : float;
  pause_p50_ms : float;
  pause_p90_ms : float;
  pause_p99_ms : float;
  pause_max_ms : float;
}

type gen_stats = {
  minor_count : int;
  minor_mean_ms : float;
  minor_p50_ms : float;
  minor_p90_ms : float;
  minor_p99_ms : float;
  minor_max_ms : float;
  promoted_slots : int;
}

type phase_row = { code : Event.code; count : int; total_ms : float }

type mmu_point = {
  window_ms : float;
  mmu : float;
  avg_util : float;
  n_windows : int;
}

type t = {
  wall_ms : float;
  n_events : int;
  n_mutators : int;
  n_cycles : int;
  phases : phase_row list;
  balance : balance;
  pauses : pauses;
  gen : gen_stats;
  mmu : mmu_point list;
}

let default_mmu_windows_ms = [ 1.0; 5.0; 20.0; 50.0 ]

(* ------------------------------------------------------------------ *)
(* Per-thread tracing work                                             *)

type acc = {
  mutable a_increments : int;
  mutable a_busy : int;  (* cycles *)
  mutable a_slots : int;
  mutable a_bg_chunks : int;
  mutable a_bg_slots : int;
  mutable a_gets : int;
  mutable a_puts : int;
  mutable a_steals : int;
  mutable a_defers : int;
}

(* All passes below walk a flat [Event.t array] — the form
   {!Cgc_obs.Obs.events_array} produces — in index order, which is
   exactly the order the list-based implementation walked, so every
   float accumulation sees the same sequence and the results are
   bit-identical.  The list entry points below are thin wrappers. *)

let tracers_of ~cycles_per_ms (events : Event.t array) =
  let tbl : (int, acc) Hashtbl.t = Hashtbl.create 16 in
  let get tid =
    match Hashtbl.find_opt tbl tid with
    | Some a -> a
    | None ->
        let a =
          { a_increments = 0; a_busy = 0; a_slots = 0; a_bg_chunks = 0;
            a_bg_slots = 0; a_gets = 0; a_puts = 0; a_steals = 0;
            a_defers = 0 }
        in
        Hashtbl.add tbl tid a;
        a
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.code with
      | Event.Mut_increment ->
          let a = get e.tid in
          a.a_increments <- a.a_increments + 1;
          a.a_busy <- a.a_busy + max 0 e.dur;
          a.a_slots <- a.a_slots + e.arg
      | Event.Bg_chunk ->
          let a = get e.tid in
          a.a_bg_chunks <- a.a_bg_chunks + 1;
          a.a_bg_slots <- a.a_bg_slots + e.arg
      | Event.Packet_get -> (get e.tid).a_gets <- (get e.tid).a_gets + 1
      | Event.Packet_put -> (get e.tid).a_puts <- (get e.tid).a_puts + 1
      | Event.Packet_steal ->
          (get e.tid).a_steals <- (get e.tid).a_steals + 1
      | Event.Packet_defer ->
          (get e.tid).a_defers <- (get e.tid).a_defers + 1
      | _ -> ())
    events;
  Hashtbl.fold
    (fun tid a rows ->
      {
        tid;
        increments = a.a_increments;
        busy_ms = float_of_int a.a_busy /. cycles_per_ms;
        slots = a.a_slots;
        bg_chunks = a.a_bg_chunks;
        bg_slots = a.a_bg_slots;
        gets = a.a_gets;
        puts = a.a_puts;
        steals = a.a_steals;
        defers = a.a_defers;
      }
      :: rows)
    tbl []
  |> List.sort (fun a b -> compare a.tid b.tid)

(* ------------------------------------------------------------------ *)
(* Load balance: Table 4 from the event stream alone                   *)

let balance_of ~cycles_per_ms (events : Event.t array) =
  let tracers = tracers_of ~cycles_per_ms events in
  let spread f rows =
    (* Mean/stddev/CV across the mutator tracers only: background
       threads trace chunks, not assigned increments, so they are not
       load-balance participants in the Table 4 sense. *)
    let s = Stats.create () in
    List.iter (fun r -> if r.increments > 0 then Stats.add s (f r)) rows;
    let m = Stats.mean s and sd = Stats.stddev s in
    (m, sd, if m > 0.0 then sd /. m else 0.0)
  in
  let busy_mean_ms, busy_stddev_ms, busy_cv =
    spread (fun r -> r.busy_ms) tracers
  in
  let slots_mean, slots_stddev, slots_cv =
    spread (fun r -> float_of_int r.slots) tracers
  in
  (* Tracing factors arrive as Incr_factor instants (fixed-point, x1e6);
     fairness reproduces the collector's definition: the population
     stddev of the factors within one GC cycle, averaged over cycles
     that collected at least two samples. *)
  let all = Stats.create () and fair = Stats.create () in
  let cycle = ref (Stats.create ()) in
  Array.iter
    (fun (e : Event.t) ->
      match e.code with
      | Event.Cycle_start -> cycle := Stats.create ()
      | Event.Incr_factor ->
          let f = float_of_int e.arg /. 1e6 in
          Stats.add all f;
          Stats.add !cycle f
      | Event.Cycle_end ->
          if Stats.count !cycle >= 2 then Stats.add fair (Stats.stddev !cycle);
          cycle := Stats.create ()
      | _ -> ())
    events;
  {
    tracers;
    busy_mean_ms;
    busy_stddev_ms;
    busy_cv;
    slots_mean;
    slots_stddev;
    slots_cv;
    factor_mean = Stats.mean all;
    factor_stddev = Stats.stddev all;
    factor_count = Stats.count all;
    fairness = Stats.mean fair;
    fairness_cycles = Stats.count fair;
  }

(* ------------------------------------------------------------------ *)
(* Windowed mutator utilization (MMU)                                  *)

let bounds (events : Event.t array) =
  let t0 = ref max_int and t1 = ref min_int in
  Array.iter
    (fun (e : Event.t) ->
      t0 := min !t0 e.ts;
      t1 := max !t1 (e.ts + max 0 e.dur))
    events;
  (!t0, !t1)

(* Spread the [spans] (cycle intervals) over [n] windows of width [w]
   cycles starting at [t0], accumulating the overlap with each window
   into [into].  The final window may extend past [t1]; callers
   normalise by actual window length. *)
let overlaps ~t0 ~w ~n spans into =
  List.iter
    (fun (a, b) ->
      if b > a then begin
        let first = max 0 ((a - t0) / w) in
        let last = min (n - 1) ((b - 1 - t0) / w) in
        for k = first to last do
          let ws = t0 + (k * w) in
          let o = min b (ws + w) - max a ws in
          if o > 0 then into.(k) <- into.(k) +. float_of_int o
        done
      end)
    spans

let window_utils ~t0 ~t1 ~w ~n_mut ~stw ~incr =
  let n = max 1 ((t1 - t0 + w - 1) / w) in
  let stw_o = Array.make n 0.0 and incr_o = Array.make n 0.0 in
  overlaps ~t0 ~w ~n stw stw_o;
  overlaps ~t0 ~w ~n incr incr_o;
  Array.init n (fun k ->
      let ws = t0 + (k * w) in
      let len = float_of_int (min w (t1 - ws)) in
      if len <= 0.0 then 1.0
      else
        let stolen =
          (stw_o.(k) /. len)
          +.
          if n_mut = 0 then 0.0
          else incr_o.(k) /. (len *. float_of_int n_mut)
        in
        Float.max 0.0 (Float.min 1.0 (1.0 -. stolen)))

let spans_of code (events : Event.t array) =
  (* Right fold so the spans come out in index (i.e. timestamp) order,
     matching what [List.filter_map] produced. *)
  Array.fold_right
    (fun (e : Event.t) acc ->
      if e.code = code && e.dur > 0 then (e.ts, e.ts + e.dur) :: acc else acc)
    events []

let mutator_tids (events : Event.t array) =
  List.sort_uniq compare
    (Array.fold_right
       (fun (e : Event.t) acc ->
         if e.code = Event.Mut_increment then e.tid :: acc else acc)
       events [])

let timeline_of_array ~cycles_per_us ~window_ms (events : Event.t array) =
  if Array.length events = 0 then []
  else begin
      let cycles_per_ms = cycles_per_us *. 1000.0 in
      let t0, t1 = bounds events in
      let w = max 1 (int_of_float (window_ms *. cycles_per_ms)) in
      let stw = spans_of Event.Stw_pause events in
      let incr = spans_of Event.Mut_increment events in
      let n_mut = List.length (mutator_tids events) in
      let utils = window_utils ~t0 ~t1 ~w ~n_mut ~stw ~incr in
      Array.to_list
        (Array.mapi
           (fun k u ->
             (float_of_int (t0 + (k * w)) /. cycles_per_ms, u))
           utils)
  end

let utilization_timeline ~cycles_per_us ~window_ms events =
  timeline_of_array ~cycles_per_us ~window_ms (Array.of_list events)

(* ------------------------------------------------------------------ *)
(* The full analysis                                                   *)

let analyse_events ?(mmu_windows_ms = default_mmu_windows_ms) ~cycles_per_us
    (events : Event.t array) =
  let cycles_per_ms = cycles_per_us *. 1000.0 in
  let n_events = Array.length events in
  let t0, t1 = if n_events = 0 then (0, 0) else bounds events in
  let wall_ms = float_of_int (t1 - t0) /. cycles_per_ms in
  (* Per-code phase attribution, tallied by the code's catalogue
     position. *)
  let counts = Array.make Event.n_codes 0
  and durs = Array.make Event.n_codes 0 in
  Array.iter
    (fun (e : Event.t) ->
      let k = Event.index e.code in
      counts.(k) <- counts.(k) + 1;
      durs.(k) <- durs.(k) + max 0 e.dur)
    events;
  let phases =
    List.filter_map
      (fun code ->
        let k = Event.index code in
        if counts.(k) = 0 then None
        else
          Some
            {
              code;
              count = counts.(k);
              total_ms = float_of_int durs.(k) /. cycles_per_ms;
            })
      Event.all_codes
  in
  (* Pause distribution (exact nearest-rank percentiles). *)
  let ps = Stats.create () in
  Array.iter
    (fun (e : Event.t) ->
      if e.code = Event.Stw_pause && e.dur >= 0 then
        Stats.add ps (float_of_int e.dur /. cycles_per_ms))
    events;
  let pauses =
    {
      pause_count = Stats.count ps;
      pause_mean_ms = Stats.mean ps;
      pause_p50_ms = Stats.percentile ps 50.0;
      pause_p90_ms = Stats.percentile ps 90.0;
      pause_p99_ms = Stats.percentile ps 99.0;
      pause_max_ms = (if Stats.count ps = 0 then 0.0 else Stats.max ps);
    }
  in
  (* Minor (nursery) pause distribution and promotion volume, from the
     generational front end's Minor_done spans.  All-zero for traces of
     non-Gen runs — the record is additive, not a mode switch. *)
  let ms = Stats.create () in
  let promoted = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      if e.code = Event.Minor_done && e.dur >= 0 then begin
        Stats.add ms (float_of_int e.dur /. cycles_per_ms);
        promoted := !promoted + e.arg
      end)
    events;
  let gen =
    {
      minor_count = Stats.count ms;
      minor_mean_ms = Stats.mean ms;
      minor_p50_ms = Stats.percentile ms 50.0;
      minor_p90_ms = Stats.percentile ms 90.0;
      minor_p99_ms = Stats.percentile ms 99.0;
      minor_max_ms = (if Stats.count ms = 0 then 0.0 else Stats.max ms);
      promoted_slots = !promoted;
    }
  in
  (* MMU curve. *)
  let stw = spans_of Event.Stw_pause events in
  let incr = spans_of Event.Mut_increment events in
  let muts = mutator_tids events in
  let n_mut = List.length muts in
  let mmu =
    if n_events = 0 then []
    else
      List.map
        (fun window_ms ->
          let w = max 1 (int_of_float (window_ms *. cycles_per_ms)) in
          let utils = window_utils ~t0 ~t1 ~w ~n_mut ~stw ~incr in
          let s = Stats.create () in
          Array.iter (Stats.add s) utils;
          {
            window_ms;
            mmu = (if Stats.count s = 0 then 1.0 else Stats.min s);
            avg_util = Stats.mean s;
            n_windows = Array.length utils;
          })
        mmu_windows_ms
  in
  let n_cycles =
    Array.fold_left
      (fun acc (e : Event.t) -> if e.code = Event.Cycle_end then acc + 1 else acc)
      0 events
  in
  {
    wall_ms;
    n_events;
    n_mutators = n_mut;
    n_cycles;
    phases;
    balance = balance_of ~cycles_per_ms events;
    pauses;
    gen;
    mmu;
  }

let analyse ?mmu_windows_ms ~cycles_per_us events =
  analyse_events ?mmu_windows_ms ~cycles_per_us (Array.of_list events)
