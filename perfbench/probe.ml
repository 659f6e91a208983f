(* Host-side measurement from outside the simulator: wall clock, OCaml
   allocation, peak RSS, a host speed calibration, interpolated percentiles,
   and the benchmark's own span recorder.

   Every timing the benchmark reports is the duration of a span the
   benchmark opened around one public library call (or a group of
   them).  Spans nest through an implicit parent stack, carry the id of
   the workload run they belong to, and record the minor words the
   calling domain allocated while they were open, so a layer's host time
   and host allocation come from the same boundary. *)

module Histogram = Cgc_util.Histogram

let now () = Unix.gettimeofday ()

(* Minor words allocated by the calling domain: exact, so a
   single-domain workload allocates the same count on every run of a
   seed. *)
let minor_words () = Gc.minor_words ()

(* Peak resident set of this process in MiB, from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed calibration, in ms: a fixed OCaml allocation loop that
   keeps a ring of 4096 short lists alive, so it exercises the minor
   heap, promotion and the major GC much as the simulator does.  On a
   shared host the time of this loop rises and falls with the time of a
   repetition (other tenants contend for the core's caches), where an
   L1-bound loop does not move.  The benchmark runs it just before and
   just after each repetition and scales that repetition's host times by
   [calib_ref_ms] over the mean of the two. *)
let calib_ms () =
  let t0 = now () in
  let keep = Array.make 4096 [] in
  let st = ref 12345 in
  for i = 1 to 3_000_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    keep.(!st land 4095) <- [ i; i + 1; i + 2 ]
  done;
  ignore (Sys.opaque_identity keep);
  (now () -. t0) *. 1000.0

(* The calibration loop on [domains] domains at once, as many as the
   workload runs on, so that it meets the contention of every core the
   workload uses; the mean of their times. *)
let calib_par_ms domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn calib_ms) in
  let mine = calib_ms () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0.0 all /. float_of_int domains

(* The calibration time that host times are scaled to: about what the
   loop takes on an uncontended core of the 2-vCPU Xeon host the bounds
   were set on. *)
let calib_ref_ms = 60.0

(* Percentile [p] (0..100) of a histogram, interpolated linearly inside
   the bucket that holds the rank.  [Histogram.percentile] answers with a
   bucket's representative value, which is the same for every seed at a
   15% bucket width; the interpolated figure moves with the samples.
   Samples outside the interior buckets (below 1 us) sit at the exact
   minimum. *)
let percentile h p =
  let n = Histogram.count h in
  if n = 0 then 0.0
  else
    let lo_v = Histogram.min h and hi_v = Histogram.max h in
    let rank = p /. 100.0 *. float_of_int n in
    let buckets = Histogram.nonzero_buckets h in
    let interior = Array.fold_left (fun a (_, _, c) -> a + c) 0 buckets in
    let below = n - interior in
    if rank <= float_of_int below then lo_v
    else
      let rec walk i cum =
        if i >= Array.length buckets then hi_v
        else
          let lo, hi, c = buckets.(i) in
          let cum' = cum +. float_of_int c in
          if rank <= cum' then
            let a = Float.max lo lo_v and b = Float.min hi hi_v in
            a +. ((b -. a) *. (rank -. cum) /. float_of_int c)
          else walk (i + 1) cum'
      in
      walk 0 (float_of_int below)

(* Samples strictly above the nearest rank of percentile [p]. *)
let beyond h p =
  let n = Histogram.count h in
  n - Cgc_util.Stats.nearest_rank ~n p

(* ------------------------------ spans ------------------------------ *)

type span = {
  run : int;  (** shared by every span of one workload run *)
  id : int;
  parent : int;  (** -1 for a run's root span *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated while the span was open *)
}

let spans : span list ref = ref []
let next_id = ref 0
let next_run = ref 0
let cur_run = ref 0
let stack = ref []

(* Open a span around [f ()]; it nests under the innermost open span. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let w0 = minor_words () in
  let t0 = now () in
  let close () =
    let t1 = now () in
    let words = minor_words () -. w0 in
    stack := List.tl !stack;
    spans := { run = !cur_run; id; parent; name; t0; t1; words } :: !spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Start a new workload run: every span opened until the next call
   carries its id. *)
let new_run () =
  cur_run := !next_run;
  incr next_run;
  !cur_run

(* The spans of [run], which a forked child hands back to its parent. *)
let run_spans run = List.filter (fun s -> s.run = run) !spans

(* Take over the spans a forked child recorded for [run]. *)
let adopt run ss =
  spans := ss @ !spans;
  next_run := max !next_run (run + 1)

(* Seconds spent in spans named [name] within [run] (0 when absent). *)
let secs run name =
  List.fold_left
    (fun acc s -> if s.run = run && s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

let words run name =
  List.fold_left
    (fun acc s -> if s.run = run && s.name = name then acc +. s.words else acc)
    0.0 !spans

(* Chrome trace_event JSON of every recorded span: one process row per
   workload run, parent and own id in [args]. *)
let write_spans path ~label =
  let buf = Buffer.create 4096 in
  let all = List.rev !spans in
  let base = match all with [] -> 0.0 | s :: _ -> s.t0 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"mwords\":%.6f}}"
        s.name s.run
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent (s.words /. 1e6))
    all;
  Printf.bprintf buf "\n],\"otherData\":{\"label\":%S}}\n" label;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)
