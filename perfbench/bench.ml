(* The repository benchmark: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--inject tamper|drop]

   Run from the repository root; artefacts go to .bench_build/perfbench.

   Every repetition runs in a forked child process, so none inherits the
   heap, allocator state or resident set of another.

   --trace 0 measures the end-to-end metrics: repetitions of the
   workload on R seeds derived from N (seed*100 + k, R fixed per
   workload), cycled until S seconds have passed.  Simulated metrics
   pool the first R repetitions and are exact for N; host times are
   medians over every repetition, the peak resident set their maximum.  A
   repeated seed must reproduce its simulation exactly.  Host seconds
   are scaled by a calibration loop run just before and just after each
   repetition (Probe.calib_ms), so that a host slowed by other tenants
   reads about the same as an idle one.

   --trace 1 is the traced pass: one untraced and one traced repetition
   on the first derived seed (in pairs while time allows), whose
   simulated outcomes must agree exactly, then the layer kernels.  It
   prints the per-layer metrics and writes the benchmark's spans as a
   Chrome trace.

   The fleet's shards are out of reach once Cluster.run returns, so in
   either mode fleet-chaos ends with one more, untimed repetition whose
   collector runs the heap verifier at every cycle boundary; it must
   reproduce the first repetition's simulation exactly.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  A failed output check
   prints correct=false and exits 1. *)

module W = Workload

let e2e_units =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_rss_mb", "MB");
    ("host_alloc_mwords", "Mwords");
    ("lat_p50_ms", "ms");
    ("lat_p999_ms", "ms");
    ("goodput_rps", "1/s");
    ("served_frac", "ratio");
    ("tx_per_s", "1/s");
    ("pause_p50_ms", "ms");
    ("pause_max_ms", "ms");
  ]

let layer_units =
  let s = "s" and c = "count" and r = "ratio" and ns = "ns" and ms = "ms" in
  [
    ("host.calib_ms", ms);
    ("runtime.create_s", s);
    ("runtime.warmup_s", s);
    ("runtime.run_s", s);
    ("runtime.run_mwords", "Mwords");
    ("sim.busy_frac", r);
    ("sim.dispatch_ns", ns);
    ("smp.fences", c);
    ("smp.cas", c);
    ("heap.alloc_mslots", "Mslots");
    ("heap.write_barrier_ns", ns);
    ("heap.card_snapshot_ns", ns);
    ("packets.get_ops", c);
    ("packets.put_ops", c);
    ("packets.max_in_use", c);
    ("packets.max_deferred", c);
    ("packets.overflows", c);
    ("packets.busy_cv", r);
    ("packets.push_pop_ns", ns);
    ("packets.pool_get_put_ns", ns);
    ("core.cycles", c);
    ("core.traced_conc_mslots", "Mslots");
    ("core.traced_stw_mslots", "Mslots");
    ("core.conc_frac", r);
    ("core.cards_conc", c);
    ("core.cards_stw", c);
    ("core.mark_p50_ms", ms);
    ("core.sweep_p50_ms", ms);
    ("core.tracing_factor", r);
    ("core.halted_cycles", c);
    ("core.degrade_rungs", c);
    ("core.mmu_20ms", r);
    ("core.scan_object_ns", ns);
    ("core.mark_tas_ns", ns);
    ("core.bitvec_scan_ns", ns);
    ("gen.minors", c);
    ("gen.minor_p50_ms", ms);
    ("gen.minor_max_ms", ms);
    ("gen.minor_ms_total", ms);
    ("gen.promoted_mslots", "Mslots");
    ("gen.promotion_frac", r);
    ("gen.minor_deferred", c);
    ("gen.pinned_slots", c);
    ("server.queue_ms_mean", ms);
    ("server.gc_queue_ms_mean", ms);
    ("server.service_ms_mean", ms);
    ("server.gc_service_ms_mean", ms);
    ("server.max_queue_depth", c);
    ("server.shed", c);
    ("server.timed_out", c);
    ("server.report_s", s);
    ("cluster.pool_s", s);
    ("cluster.run_s", s);
    ("cluster.cpu_s", s);
    ("cluster.incarnations", c);
    ("cluster.retried", c);
    ("cluster.redirected", c);
    ("cluster.lost", c);
    ("cluster.availability", r);
    ("cluster.ttr_ms", ms);
    ("cluster.routed_cv", r);
    ("cluster.report_s", s);
    ("obs.events", c);
    ("obs.dropped", c);
    ("obs.record_ns", ns);
    ("obs.export_s", s);
    ("obs.export_mwords", "Mwords");
    ("obs.export_ns_per_event", ns);
    ("obs.trace_mb", "MB");
    ("obs.overhead_frac", r);
    ("prof.analyse_s", s);
  ]

(* Repetitions (distinct derived seeds) the simulated metrics pool. *)
let pooled_reps = function
  | W.Serve_cgc -> 6
  | W.Serve_gen -> 6
  | W.Jbb_traced -> 10
  | W.Fleet_chaos -> 10

(* Stop starting repetitions after this long, whatever --seconds says,
   so a run always ends well inside its time limit. *)
let hard_stop_s = 120.0

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-cgc|serve-gen|jbb-traced|fleet-chaos \
     --seed N --seconds S --trace 0|1 [--inject tamper|drop]";
  exit 2

let print_result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* Run [f] in a forked child and return what it returns, with the
   child's peak resident set.  A failed output check in the child fails
   the parent.  The parent never starts a domain, which fork requires. *)
let in_child (type a) (f : unit -> a) : a * float =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let res : (a * float, string) result =
        match f () with
        | v -> Ok (v, Probe.peak_rss_mb ())
        | exception W.Check_failed msg -> Error msg
        | exception Cgc_core.Verify.Invariant_violation msg ->
            Error ("heap verifier: " ^ msg)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let res =
        try Some (Marshal.from_channel ic : (a * float, string) result)
        with End_of_file -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (res, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error msg), _ -> raise (W.Check_failed msg)
      | _ -> W.fail "a repetition's process died without a result")

let with_units units values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value (List.assoc_opt name values) ~default:0.0))
    units

let e2e_metrics ~reps ~rss ~words (sims : W.sim list) =
  let s = W.pool_sims sims in
  let secs name =
    Probe.median (List.map (fun (run, scale) -> Probe.secs run name *. scale) reps)
  in
  let n = float_of_int (List.length sims) in
  let per_s x = float_of_int x /. s.W.sim_s in
  [
    ("setup_s", secs "setup");
    ("wall_s", secs "measure");
    ("peak_rss_mb", rss);
    ("host_alloc_mwords", words /. n /. 1e6);
    ("lat_p50_ms", Probe.percentile s.W.lat 50.0);
    ("lat_p999_ms", Probe.percentile s.W.lat 99.9);
    ("goodput_rps", per_s s.W.good);
    ( "served_frac",
      if s.W.attempted = 0 then 0.0
      else float_of_int (s.W.attempted - s.W.failed) /. float_of_int s.W.attempted );
    ("tx_per_s", per_s s.W.finished);
    ("pause_p50_ms", Probe.percentile s.W.pauses 50.0);
    ("pause_max_ms", s.W.pause_max);
  ]

let describe (s : W.sim) =
  let attempted = max 1 s.W.attempted in
  Printf.printf
    "  sim: %d attempted, %d failed (failed_frac %.6f), %d finished in %.1f \
     s; lat p99.9 over %d samples (%d beyond); %d pauses\n"
    s.W.attempted s.W.failed
    (float_of_int s.W.failed /. float_of_int attempted)
    s.W.finished s.W.sim_s (Cgc_util.Histogram.count s.W.lat)
    (Probe.beyond s.W.lat 99.9)
    (Cgc_util.Histogram.count s.W.pauses)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0
  and trace = ref 0 and inject = ref "" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--inject" :: v :: r -> inject := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let kind =
    match List.assoc_opt !workload W.all with Some k -> k | None -> usage ()
  in
  if !seed < 0 || (!trace <> 0 && !trace <> 1) then usage ();
  if not (List.mem !inject [ ""; "tamper"; "drop" ]) then usage ();
  let nreps = pooled_reps kind in
  let opts ~obs ~verify =
    {
      W.obs;
      ring = (if !inject = "drop" then 64 else W.ring kind);
      tamper = !inject = "tamper";
      verify;
    }
  in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname W.out_dir; W.out_dir ];
  let sub k = (!seed * 100) + k in
  let t_start = Probe.now () in
  let elapsed () = Probe.now () -. t_start in
  Printf.printf "perfbench %s seed %d trace %d\n%!" !workload !seed !trace;
  let attempted = ref 0 in
  (* One repetition in a child, between two runs of the calibration
     loop (on both pool domains for the fleet).  A full major collection
     after the workload and after the loop keeps the garbage of one out
     of the other's time.  [scale] turns the repetition's host seconds
     into seconds on a host where the loop takes [Probe.calib_ref_ms]. *)
  let calibs = ref [] in
  let one ?(verify = false) kind ~obs ~seed =
    incr attempted;
    let (run, spans, (rep : W.rep), calib), rss =
      in_child (fun () ->
          let calib () =
            Probe.calib_par_ms (if kind = W.Fleet_chaos then W.fleet_domains else 1)
          in
          let before = calib () in
          Gc.full_major ();
          let run, rep = W.run kind ~opts:(opts ~obs ~verify) ~seed in
          Gc.full_major ();
          let calib = (before +. calib ()) /. 2.0 in
          (run, Probe.run_spans run, rep, calib))
    in
    Probe.adopt run spans;
    calibs := calib :: !calibs;
    let scale = Probe.calib_ref_ms /. calib in
    Printf.printf
      "  rep seed %d%s: setup %.4f s, measure %.4f s, calib %.1f ms, peak %.1f MB\n%!"
      seed
      (if obs then " (traced)" else if verify then " (verified, untimed)" else "")
      (Probe.secs run "setup") (Probe.secs run "measure") calib rss;
    (run, rep, rss, scale)
  in
  let verify_fleet (first : W.sim) =
    if kind = W.Fleet_chaos then begin
      let _, rep, _, _ = one kind ~obs:false ~verify:true ~seed:(sub 0) in
      if W.fingerprint first <> W.fingerprint rep.W.sim then
        W.fail "the verified repetition did not reproduce seed %d: %s vs %s"
          (sub 0) (W.fingerprint first) (W.fingerprint rep.W.sim)
    end
  in
  match
    if !trace = 0 then begin
      (* jbb-traced is traced by definition; the others run untraced. *)
      let obs = kind = W.Jbb_traced in
      let runs = ref [] and sims = ref [] and rss = ref [] and words = ref 0.0 in
      let k = ref 0 in
      while !k < nreps || (elapsed () < !seconds && elapsed () < hard_stop_s) do
        let i = !k mod nreps in
        let run, rep, peak, scale = one kind ~obs ~seed:(sub i) in
        runs := (run, scale) :: !runs;
        rss := peak :: !rss;
        if !k < nreps then begin
          sims := rep.W.sim :: !sims;
          words := !words +. rep.W.host_words
        end
        else begin
          let first = List.nth (List.rev !sims) i in
          if W.fingerprint first <> W.fingerprint rep.W.sim then
            W.fail "seed %d did not reproduce its simulation: %s vs %s" (sub i)
              (W.fingerprint first) (W.fingerprint rep.W.sim)
        end;
        incr k
      done;
      let sims = List.rev !sims in
      verify_fleet (List.hd sims);
      describe (W.pool_sims sims);
      with_units e2e_units
        (e2e_metrics ~reps:(List.rev !runs) ~rss:(List.fold_left Float.max 0.0 !rss)
           ~words:!words sims)
    end
    else begin
      let pairs = ref [] in
      while
        !pairs = []
        || (elapsed () < !seconds /. 2.0 && List.length !pairs < 5
           && elapsed () < hard_stop_s)
      do
        let plain = one kind ~obs:false ~seed:(sub 0) in
        let traced = one kind ~obs:true ~seed:(sub 0) in
        pairs := (plain, traced) :: !pairs
      done;
      let pairs = List.rev !pairs in
      let (run_p, plain, _, _), (run_t, traced, _, _) = List.hd pairs in
      if W.fingerprint plain.W.sim <> W.fingerprint traced.W.sim then
        W.fail "tracing moved the simulation: %s untraced vs %s traced"
          (W.fingerprint plain.W.sim) (W.fingerprint traced.W.sim);
      verify_fleet plain.W.sim;
      describe traced.W.sim;
      let rep_s sel =
        Probe.median
          (List.map
             (fun p ->
               let run, _, _, scale = sel p in
               Probe.secs run "rep" *. scale)
             pairs)
      in
      let overhead = (rep_s snd /. rep_s fst) -. 1.0 in
      let kernels = Kernels.all () in
      let spans =
        Filename.concat W.out_dir (Printf.sprintf "%s-%d.spans.json" !workload !seed)
      in
      Probe.write_spans spans ~label:(Printf.sprintf "%s seed %d" !workload !seed);
      Printf.printf "  spans of runs %d (untraced) and %d (traced) written to %s\n"
        run_p run_t spans;
      (* Host times and counters from the untraced repetition, which
         comes first; obs, prof and trace-analysis figures, which only
         the traced one has, from the traced one. *)
      with_units layer_units
        ((("host.calib_ms", Probe.median !calibs)
         :: ("obs.overhead_frac", overhead) :: kernels)
        @ plain.W.layer @ traced.W.layer)
    end
  with
  | metrics ->
      print_result ~correct:true ~attempted:!attempted ~failed:0 metrics
  | exception W.Check_failed msg ->
      Printf.printf "output check failed: %s\n" msg;
      print_result ~correct:false ~attempted:!attempted ~failed:!attempted [];
      exit 1
