(* Tests for the observability subsystem: the log-scale histogram, the
   bounded event ring, the tracing sink, and the Chrome trace exporter —
   including the headline determinism property (two equal-seed traced VM
   runs produce byte-identical JSON). *)

module Histogram = Cgc_util.Histogram
module Prng = Cgc_util.Prng
module Ring = Cgc_obs.Ring
module Event = Cgc_obs.Event
module Obs = Cgc_obs.Obs
module Export = Cgc_obs.Export
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Server = Cgc_server.Server

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* --------------------------- Histogram --------------------------- *)

(* Exact percentile by nearest-rank over a sorted copy — the reference
   the bucketed histogram must approximate. *)
let exact_percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if p >= 100.0 then a.(n - 1)
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let test_hist_percentiles_vs_sort () =
  let rng = Prng.create 11 in
  let n = 5000 in
  (* log-uniform over ~4 decades, like pause times in ms *)
  let samples =
    Array.init n (fun _ -> 10.0 ** (Prng.float rng 4.0 -. 2.0))
  in
  let h = Histogram.create () in
  Array.iter (fun x -> Histogram.add h x) samples;
  List.iter
    (fun p ->
      let want = exact_percentile samples p in
      let got = Histogram.percentile h p in
      (* 16 buckets per decade bounds the relative error of any interior
         percentile by one bucket width: 10^(1/16) - 1 ~ 15.5%. *)
      let rel = abs_float (got -. want) /. want in
      check cb (Printf.sprintf "p%.0f within bucket width" p) true (rel < 0.16))
    [ 10.0; 50.0; 90.0; 99.0 ];
  check cf "p100 is the exact max" (exact_percentile samples 100.0)
    (Histogram.percentile h 100.0)

let test_hist_exact_moments () =
  let samples = [| 0.5; 1.0; 2.0; 4.0; 8.0 |] in
  let h = Histogram.create () in
  Array.iter (Histogram.add h) samples;
  check ci "count" 5 (Histogram.count h);
  check cf "sum" 15.5 (Histogram.sum h);
  check cf "mean" 3.1 (Histogram.mean h);
  check cf "min" 0.5 (Histogram.min h);
  check cf "max" 8.0 (Histogram.max h)

let test_hist_empty () =
  let h = Histogram.create () in
  check ci "count" 0 (Histogram.count h);
  check cf "mean of empty" 0.0 (Histogram.mean h);
  check cf "percentile of empty" 0.0 (Histogram.percentile h 50.0)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let all = Histogram.create () in
  let rng = Prng.create 3 in
  for _ = 1 to 500 do
    let x = Prng.float rng 100.0 +. 0.01 in
    Histogram.add (if Prng.bool rng then a else b) x;
    Histogram.add all x
  done;
  let m = Histogram.merge a b in
  check ci "merged count" (Histogram.count all) (Histogram.count m);
  check cf "merged sum" (Histogram.sum all) (Histogram.sum m);
  check cf "merged max" (Histogram.max all) (Histogram.max m);
  check cf "merged p90" (Histogram.percentile all 90.0)
    (Histogram.percentile m 90.0)

(* ----------------------------- Ring ------------------------------ *)

let add_ev r ts = Ring.add_fields r ~ts ~dur:(-1) ~code:Event.Packet_get ~arg:0

let test_ring_keeps_newest () =
  let r = Ring.create ~tid:0 ~capacity:4 in
  for i = 1 to 10 do
    add_ev r i
  done;
  check ci "dropped count" 6 (Ring.dropped r);
  check ci "stored" 4 (Ring.length r);
  let ts = List.map (fun e -> e.Event.ts) (Ring.to_list r) in
  check (Alcotest.list ci) "newest 4, oldest first" [ 7; 8; 9; 10 ] ts

let test_ring_no_overflow () =
  let r = Ring.create ~tid:0 ~capacity:8 in
  for i = 1 to 8 do
    add_ev r i
  done;
  check ci "no loss" 0 (Ring.dropped r);
  check ci "all stored" 8 (Ring.length r)

let fill_ring ~tid ~cap tss =
  let r = Ring.create ~tid ~capacity:cap in
  List.iteri
    (fun i ts ->
      Ring.add_fields r ~ts ~dur:(i - 1)
        ~code:(List.nth Event.all_codes (i mod Event.n_codes))
        ~arg:(i * 7))
    tss;
  r

let ring_sorted_view r order =
  Array.to_list
    (Array.map
       (fun s ->
         {
           Event.ts = Ring.ts r s;
           dur = Ring.dur r s;
           tid = Ring.tid r;
           code = Event.of_index (Ring.code_index r s);
           arg = Ring.arg r s;
         })
       order)

let ring_order_is_stable_sort_test =
  (* Timestamps with many ties, negatives and the int extremes; rings
     that wrap and rings that do not. *)
  let ts_gen =
    QCheck.Gen.(
      oneof [ int; int_range (-3) 3; oneofl [ min_int; max_int; 0; -1 ] ])
  in
  QCheck.Test.make
    ~name:"ring: sorted view is a stable ts-sort of to_list" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list int))
       QCheck.Gen.(pair (int_range 1 20) (list_size (int_range 0 40) ts_gen)))
    (fun (cap, tss) ->
      let r = fill_ring ~tid:5 ~cap tss in
      let want =
        List.stable_sort
          (fun a b -> compare a.Event.ts b.Event.ts)
          (Ring.to_list r)
      in
      let sc = Ring.scratch (Ring.length r) in
      if ring_sorted_view r (Ring.order r sc) <> want then
        QCheck.Test.fail_report "sorted view differs";
      (* cached: a second read gives the same array *)
      Ring.order r sc == Ring.order r sc)

let ring_growth_bound_test =
  QCheck.Test.make ~name:"ring: arrays at most max(256, 2k) slots" ~count:200
    QCheck.(pair (int_range 1 5000) (int_range 0 5000))
    (fun (cap, k) ->
      let k = min k cap in
      let r = Ring.create ~tid:0 ~capacity:cap in
      let ok = ref (Ring.slots r <= min cap 256) in
      for i = 1 to k do
        add_ev r i;
        ok := !ok && Ring.slots r <= min cap (max 256 (2 * i))
      done;
      if not !ok then
        QCheck.Test.fail_reportf "%d slots after %d of %d" (Ring.slots r) k cap;
      true)

(* ------------------------------ Obs ------------------------------ *)

let test_null_sink_emits_nothing () =
  let t = Obs.null in
  check cb "disabled" false (Obs.enabled t);
  Obs.instant t Event.Stw_pause;
  Obs.span t ~start:0 Event.Conc_mark;
  check ci "emitted" 0 (Obs.emitted t);
  check ci "events" 0 (List.length (Obs.events t))

let test_armed_sink_orders_events () =
  let clock = ref 0 and tid = ref 0 in
  let t = Obs.create ~now:(fun () -> !clock) ~tid:(fun () -> !tid) () in
  check cb "enabled" true (Obs.enabled t);
  (* interleave two threads with out-of-order arrival per thread *)
  tid := 1;
  clock := 30;
  Obs.instant t Event.Packet_put;
  tid := 0;
  clock := 10;
  Obs.instant t Event.Packet_get;
  clock := 50;
  Obs.span t ~start:20 Event.Stw_pause;
  let evs = Obs.events t in
  check ci "all kept" 3 (List.length evs);
  let ts = List.map (fun e -> e.Event.ts) evs in
  check (Alcotest.list ci) "sorted by timestamp" [ 10; 20; 30 ] ts;
  check ci "emitted counter" 3 (Obs.emitted t);
  Obs.clear t;
  check ci "clear drops events" 0 (List.length (Obs.events t))

(* ---------------------------- Export ----------------------------- *)

let test_chrome_json_shape () =
  let clock = ref 0 in
  let t = Obs.create ~now:(fun () -> !clock) ~tid:(fun () -> 7) () in
  clock := 1100;
  Obs.span t ~start:550 ~arg:3 Event.Stw_pause;
  Obs.instant t ~arg:12 Event.Packet_steal;
  let json = Export.chrome_json ~cycles_per_us:550.0 (Obs.events_array t) in
  check cb "has trace array" true
    (String.length json > 0 && json.[0] = '{');
  let has s = contains json s in
  check cb "complete span" true (has {|"ph":"X"|});
  check cb "instant event" true (has {|"ph":"i"|});
  check cb "span name" true (has {|"name":"stw-pause"|});
  check cb "instant name" true (has {|"name":"packet-steal"|});
  check cb "tid" true (has {|"tid":7|});
  check cb "ts in us" true (has {|"ts":1.000|});
  check cb "dur in us" true (has {|"dur":1.000|})

(* The writer's oracle: the Buffer-and-Printf formatting the exact-size
   writer must reproduce byte for byte. *)
let printf_chrome_json ~cycles_per_us events =
  let b = Buffer.create 1024 in
  let us c = Printf.sprintf "%.3f" (float_of_int c /. cycles_per_us) in
  Buffer.add_string b
    (Printf.sprintf
       "{\"displayTimeUnit\":\"ms\",\"cgcSchema\":\"%s\",\"cyclesPerUs\":%.3f,\"emitted\":0,\"dropped\":0,\"traceEvents\":["
       Export.trace_schema cycles_per_us);
  List.iteri
    (fun i (e : Event.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n{\"name\":\"%s\",\"cat\":\"%s\"" (Event.name e.code)
           (Event.cat e.code));
      if Event.instant e then Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\""
      else Buffer.add_string b (",\"ph\":\"X\",\"dur\":" ^ us e.dur);
      Buffer.add_string b
        (Printf.sprintf ",\"ts\":%s,\"pid\":0,\"tid\":%s,\"args\":{\"v\":%s}}"
           (us e.ts) (string_of_int e.tid) (string_of_int e.arg)))
    events;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let export_matches_printf (cycles_per_us, events) =
  let got = Export.chrome_json ~cycles_per_us (Array.of_list events) in
  let want = printf_chrome_json ~cycles_per_us events in
  if not (String.equal got want) then
    QCheck.Test.fail_reportf "writer output differs:@.got  %s@.want %s" got
      want;
  true

let clocks = [ 1.0; 550.0; 1999.0; 2000.0; 550.5 ]

let gen_event ~cycles =
  let open QCheck.Gen in
  let any_int =
    oneof [ int; oneofl [ min_int; max_int; -1; 0; 1; -10; 10 ] ]
  in
  map
    (fun (((ts, dur), (tid, arg)), code) -> { Event.ts; dur; tid; code; arg })
    (pair
       (pair (pair cycles (oneof [ cycles; return 0; return (-1) ]))
          (pair any_int any_int))
       (oneofl Event.all_codes))

let print_events (cpu, evs) =
  Printf.sprintf "cycles_per_us=%g %s" cpu
    (String.concat "; "
       (List.map
          (fun (e : Event.t) ->
            Printf.sprintf "{ts=%d dur=%d tid=%d arg=%d %s}" e.ts e.dur e.tid
              e.arg (Event.name e.code))
          evs))

let export_fixed_point_test =
  (* Cycle values across the fast path's whole range [0, 2^40), small
     values, and a few outside it (negative, >= 2^40) that must take the
     Printf path. *)
  let cycles =
    QCheck.Gen.(
      oneof
        [
          int_range 0 ((1 lsl 40) - 1);
          int_range 0 5000;
          int_range (1 lsl 40) (1 lsl 50);
          int_range (-5000) (-1);
        ])
  in
  QCheck.Test.make ~name:"export: fixed-point %.3f equals Printf" ~count:500
    (QCheck.make ~print:print_events
       QCheck.Gen.(
         pair (oneofl clocks) (list_size (int_range 0 8) (gen_event ~cycles))))
    export_matches_printf

let export_ties_test =
  (* At 2000 cycles/us an odd cycle count is an exact tie in thousandths
     of a microsecond: the writer must defer to Printf's rounding. *)
  let odd =
    QCheck.Gen.(map (fun k -> (2 * k) + 1) (int_range 0 ((1 lsl 39) - 1)))
  in
  QCheck.Test.make ~name:"export: exact ties round like Printf" ~count:300
    (QCheck.make ~print:print_events
       QCheck.Gen.(
         pair (return 2000.0)
           (list_size (int_range 1 6) (gen_event ~cycles:odd))))
    export_matches_printf

let test_reexport_fractional_clock () =
  let events =
    Array.init 40 (fun i ->
        {
          Event.ts = i * 977;
          dur = (if i mod 3 = 0 then -1 else i * 131);
          tid = i mod 5;
          code = List.nth Event.all_codes (i mod Event.n_codes);
          arg = (i * 7919) - 100;
        })
  in
  let json = Export.chrome_json ~emitted:40 ~cycles_per_us:550.5 events in
  match Export.parse_chrome_json json with
  | Error msg -> Alcotest.fail msg
  | Ok (meta, parsed) ->
      let again =
        Export.chrome_json ~emitted:meta.Export.emitted
          ~dropped:meta.Export.dropped ~cycles_per_us:meta.Export.cycles_per_us
          (Array.of_list parsed)
      in
      check cb "re-export at 550.5 cycles/us is byte-identical" true
        (String.equal json again)

let test_event_index () =
  check ci "n_codes" (List.length Event.all_codes) Event.n_codes;
  List.iteri
    (fun i c -> check ci (Event.name c) i (Event.index c))
    Event.all_codes

(* The merged order is cached per recorded state: any emit or clear
   must show in the next export, and callers' arrays are their own. *)
let test_merge_cache_invalidation () =
  let clock = ref 0 and tid = ref 0 in
  let t = Obs.create ~now:(fun () -> !clock) ~tid:(fun () -> !tid) () in
  let export () = Export.chrome_json ~cycles_per_us:1.0 (Obs.events_array t) in
  let arg_list () = List.map (fun e -> e.Event.arg) (Obs.events t) in
  clock := 10;
  Obs.instant t ~arg:1 Event.Packet_get;
  let first = export () in
  check (Alcotest.list ci) "first state" [ 1 ] (arg_list ());
  tid := 1;
  clock := 5;
  Obs.instant t ~arg:2 Event.Packet_put;
  check (Alcotest.list ci) "emit after export shows" [ 2; 1 ] (arg_list ());
  check cb "export sees the new event" true (export () <> first);
  check cb "new event in the json" true (contains (export ()) {|"v":2|});
  let a = Obs.events_array t in
  a.(0) <- { (a.(0)) with Event.arg = 99 };
  Array.sort (fun x y -> compare y.Event.ts x.Event.ts) a;
  check (Alcotest.list ci) "caller mutation does not leak" [ 2; 1 ]
    (Array.to_list (Array.map (fun e -> e.Event.arg) (Obs.events_array t)));
  check cb "nor into the export" false (contains (export ()) {|"v":99|});
  (* Refill to the emit count the cached merge was built at, with
     different events: only the clear can tell the two states apart. *)
  Obs.clear t;
  tid := 0;
  clock := 7;
  Obs.instant t ~arg:3 Event.Cycle_start;
  Obs.instant t ~arg:4 Event.Cycle_end;
  check (Alcotest.list ci) "state after clear" [ 3; 4 ] (arg_list ());
  check cb "export after clear" true
    (contains (export ()) {|"v":3|} && not (contains (export ()) {|"v":1}|}));
  Obs.clear t;
  check ci "clear empties the export" 0 (Array.length (Obs.events_array t))

let test_csv_quoting () =
  let out =
    Export.csv ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ]
  in
  check Alcotest.string "csv"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n" out;
  let out =
    Export.csv ~schema:"test-v1" ~header:[ "a" ] [ [ "1" ] ]
  in
  check Alcotest.string "csv with schema line" "#schema=test-v1\na\n1\n" out

(* --------------------- End-to-end determinism -------------------- *)

let traced_run () =
  let gc = { Config.default with Config.n_background = 2 } in
  let vm =
    Cgc_workloads.Specjbb.run ~warehouses:4 ~gc ~heap_mb:24.0 ~ncpus:2 ~seed:5
      ~trace:true ~ms:600.0 ()
  in
  Vm.trace_json vm

let test_trace_deterministic () =
  let a = traced_run () and b = traced_run () in
  check cb "some events" true (String.length a > 1000);
  check cb "byte-identical across equal-seed runs" true (String.equal a b)

let test_trace_has_gc_phases () =
  let json = traced_run () in
  let has s = contains json s in
  check cb "stw-pause span" true (has {|"name":"stw-pause"|});
  check cb "concurrent-mark span" true (has {|"name":"concurrent-mark"|});
  check cb "sweep events" true (has {|"name":"sweep-chunk"|})

let test_untraced_run_emits_nothing () =
  let vm =
    Cgc_workloads.Specjbb.run ~warehouses:2 ~gc:Config.default ~heap_mb:16.0
      ~ncpus:2 ~seed:5 ~ms:300.0 ()
  in
  check ci "no events" 0 (Obs.emitted (Vm.obs vm))

(* ------------------------ The merged event view ----------------------- *)

let obs_events_array_order_test =
  (* The merged view must be the stable ts-sort of the per-thread streams
     concatenated in tid order, drops included — exactly what the
     list-based implementation produced.  The packed-key sort inside
     [events_array] is an implementation detail this pins down. *)
  QCheck.Test.make ~name:"obs: events_array is the stable per-tid merge"
    ~count:300
    QCheck.(small_list (pair (int_bound 3) (int_bound 50)))
    (fun evs ->
      let cap = 8 in
      let now = ref 0 and tid = ref 0 in
      let o = Obs.create ~ring_capacity:cap ~now:(fun () -> !now)
          ~tid:(fun () -> !tid) ()
      in
      List.iteri
        (fun i (t, ts) ->
          tid := t;
          now := ts;
          Obs.instant o ~arg:i Event.Cycle_start)
        evs;
      let expected =
        let tids = List.sort_uniq compare (List.map fst evs) in
        List.concat_map
          (fun t ->
            let stream =
              List.filteri (fun _ _ -> true) evs
              |> List.mapi (fun i (t', ts) -> (t', ts, i))
              |> List.filter (fun (t', _, _) -> t' = t)
            in
            let n = List.length stream in
            let drop = max 0 (n - cap) in
            List.filteri (fun i _ -> i >= drop) stream)
          tids
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
        |> List.map (fun (t, ts, i) -> (ts, t, i))
      in
      let got =
        List.map
          (fun e -> (e.Event.ts, e.Event.tid, e.Event.arg))
          (Obs.events o)
      in
      if got <> expected then QCheck.Test.fail_report "merge order mismatch";
      true)

let obs_events_array_full_range_test =
  (* The radix sort behind the merge orders signed timestamps over the
     whole int range — negatives, extremes, many ties — exactly as a
     stable comparison sort does. *)
  let ts_gen =
    QCheck.Gen.(
      oneof [ int; int_range (-3) 3; oneofl [ min_int; max_int; 0; -1 ] ])
  in
  QCheck.Test.make ~name:"obs: events_array sorts the full int range stably"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(list_size (int_range 1 40) (pair (int_bound 3) ts_gen)))
    (fun evs ->
      let o = Obs.create ~now:(fun () -> 0) ~tid:(fun () -> 0) () in
      List.iteri
        (fun i (tid, ts) ->
          Obs.instant_host o ~arg:i ~tid ~ts Event.Cycle_start)
        evs;
      let expected =
        List.mapi (fun i (tid, ts) -> (ts, tid, i)) evs
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
        |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let got =
        Array.to_list
          (Array.map
             (fun e -> (e.Event.ts, e.Event.tid, e.Event.arg))
             (Obs.events_array o))
      in
      if got <> expected then QCheck.Test.fail_report "order mismatch";
      true)

(* Once a thread's ring exists, emitting costs no allocation — also
   when the emitting thread changes on every event, which misses the
   one-ring cache. *)
let test_emit_alloc_free () =
  let o =
    Obs.create ~ring_capacity:64 ~now:(fun () -> 0) ~tid:(fun () -> 0) ()
  in
  let emit n =
    for i = 1 to n do
      Obs.instant_host o ~tid:(i land 1) ~ts:i Event.Packet_get
    done
  in
  emit 2;
  let before = Gc.minor_words () in
  emit 10_000;
  let words = Gc.minor_words () -. before in
  check cf "minor words for 10k emits from alternating tids" 0.0 words;
  check ci "all recorded" 10_002 (Obs.emitted o)

(* The ring writer must equal the array writer over the same sink, in
   memory and streamed, for any mix of threads, spans, ties and wraps. *)
let obs_writers_match_array_writer_test =
  let ev_gen =
    QCheck.Gen.(
      quad (int_range (-1) 3) (int_range 0 60)
        (oneof [ return (-1); int_range 0 50 ])
        (int_range 0 (Event.n_codes - 1)))
  in
  QCheck.Test.make ~name:"export: ring writers equal the array writer"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list (quad int int int int))
       QCheck.Gen.(list_size (int_range 0 60) ev_gen))
    (fun evs ->
      let tid = ref 0 in
      let o =
        Obs.create ~ring_capacity:8 ~now:(fun () -> 0) ~tid:(fun () -> !tid) ()
      in
      List.iteri
        (fun i (t, ts, dur, k) ->
          let code = Event.of_index k in
          if dur < 0 then Obs.instant_host o ~arg:i ~tid:t ~ts code
          else begin
            tid := t;
            Obs.span_at o ~arg:i ~ts ~dur code
          end)
        evs;
      let cycles_per_us = 550.0 in
      let want =
        Export.chrome_json ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o)
          ~cycles_per_us (Obs.events_array o)
      in
      let path = Filename.temp_file "cgc-obs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path
            (Export.output_obs_chrome ~cycles_per_us o);
          let streamed = In_channel.with_open_bin path In_channel.input_all in
          if Export.obs_chrome_json ~cycles_per_us o <> want then
            QCheck.Test.fail_report "in-memory ring writer differs";
          if streamed <> want then
            QCheck.Test.fail_report "streamed ring writer differs");
      true)

(* ------------------------- Golden trace --------------------------- *)

(* A small gen-mode server run whose worker rings wrap (dropped > 0) and
   whose server arrival process records on the synthetic tid -1.  Its
   trace is committed as [golden_gen.trace.json]; both writers must
   reproduce it byte for byte, so any change to the recording, ordering
   or formatting of events shows here. *)
let golden_vm () =
  let vm =
    Vm.create
      (Vm.config ~heap_mb:4.0 ~ncpus:2 ~seed:11 ~gc:Config.gen ~trace:true
         ~trace_ring:512 ())
  in
  ignore (Server.create (Server.cfg ~rate_per_s:2000.0 ~workers:2 ()) vm);
  Vm.run vm ~ms:100.0;
  vm

let test_golden_trace () =
  let want =
    In_channel.with_open_bin "golden_gen.trace.json" In_channel.input_all
  in
  let vm = golden_vm () in
  let o = Vm.obs vm in
  check cb "a ring wrapped" true (Obs.dropped o > 0);
  check cb "the server's tid -1 ring" true (contains want {|"tid":-1,|});
  check cb "gen-mode minors" true (contains want {|"name":"minor-done"|});
  check cb "Vm.trace_json matches the golden trace" true
    (String.equal (Vm.trace_json vm) want);
  let path = Filename.temp_file "cgc-golden" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vm.write_trace vm path;
      check cb "Vm.write_trace matches the golden trace" true
        (String.equal
           (In_channel.with_open_bin path In_channel.input_all)
           want))

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles vs sort" `Quick
            test_hist_percentiles_vs_sort;
          Alcotest.test_case "exact moments" `Quick test_hist_exact_moments;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overflow keeps newest" `Quick
            test_ring_keeps_newest;
          Alcotest.test_case "no overflow below capacity" `Quick
            test_ring_no_overflow;
          QCheck_alcotest.to_alcotest ring_order_is_stable_sort_test;
          QCheck_alcotest.to_alcotest ring_growth_bound_test;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null sink is inert" `Quick
            test_null_sink_emits_nothing;
          Alcotest.test_case "armed sink merges and orders" `Quick
            test_armed_sink_orders_events;
          QCheck_alcotest.to_alcotest obs_events_array_order_test;
          QCheck_alcotest.to_alcotest obs_events_array_full_range_test;
          Alcotest.test_case "emission allocates nothing" `Quick
            test_emit_alloc_free;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          QCheck_alcotest.to_alcotest export_fixed_point_test;
          QCheck_alcotest.to_alcotest export_ties_test;
          Alcotest.test_case "re-export at a fractional clock" `Quick
            test_reexport_fractional_clock;
          Alcotest.test_case "event catalogue index" `Quick test_event_index;
          Alcotest.test_case "merge cache invalidation" `Quick
            test_merge_cache_invalidation;
          QCheck_alcotest.to_alcotest obs_writers_match_array_writer_test;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "byte-identical traces" `Slow
            test_trace_deterministic;
          Alcotest.test_case "gc phases present" `Slow test_trace_has_gc_phases;
          Alcotest.test_case "zero-cost when off" `Slow
            test_untraced_run_emits_nothing;
          Alcotest.test_case "golden gen-mode trace" `Quick test_golden_trace;
        ] );
    ]
