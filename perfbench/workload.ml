(* The four benchmark workloads, each built and driven only through the
   libraries' public functions, with a span around every call.

   One call of [run] is one repetition of a workload on one seed.  It
   returns the simulated outcome (exact for the seed) and the per-layer
   figures measured in that repetition, after running the output checks
   outside the timed spans.  A failed check raises [Check_failed]. *)

module Histogram = Cgc_util.Histogram
module Stats = Cgc_util.Stats
module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Collector = Cgc_core.Collector
module Server = Cgc_server.Server
module Span = Cgc_server.Span
module Latency = Cgc_server.Latency
module Server_report = Cgc_server.Report
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Dpool = Cgc_cluster.Dpool
module Obs = Cgc_obs.Obs
module Export = Cgc_obs.Export
module Analysis = Cgc_prof.Analysis
module Json = Cgc_prof.Json
module Txmix = Cgc_workloads.Txmix

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type kind = Serve_cgc | Serve_gen | Jbb_traced | Fleet_chaos

let all =
  [
    ("serve-cgc", Serve_cgc);
    ("serve-gen", Serve_gen);
    ("jbb-traced", Jbb_traced);
    ("fleet-chaos", Fleet_chaos);
  ]

(* Requests (or transactions) finished within this many simulated ms
   count towards goodput. *)
let limit_ms = 5.0

(* Per-thread event-ring capacity for armed sinks: the smallest power of
   two at which the workload drops no event.  A serve worker emits about
   350k events in its 8.5 s. *)
let ring = function
  | Serve_cgc | Serve_gen -> 1 lsl 19
  | Jbb_traced | Fleet_chaos -> 1 lsl 17

type sim = {
  lat : Histogram.t;  (** end-to-end latency of every finished item, ms *)
  good : int;  (** finished within [limit_ms] *)
  attempted : int;  (** arrived requests, drawn fleet arrivals, or transactions *)
  failed : int;  (** shed, timed out, fleet-shed, unroutable, lost in a crash *)
  finished : int;  (** completed requests or transactions *)
  sim_s : float;  (** measured window, simulated seconds *)
  pauses : Histogram.t;  (** GC pauses that stopped a mutator, ms *)
  pause_max : float;
}

(* Everything simulated, as one string: equal exactly when the
   simulations agree. *)
let fingerprint s =
  let p h q = Probe.percentile h q in
  Printf.sprintf "%d/%d/%d/%d/%.17g|%d/%.17g/%.17g/%.17g/%.17g|%d/%.17g/%.17g/%.17g"
    s.attempted s.failed s.finished s.good s.sim_s (Histogram.count s.lat)
    (Histogram.sum s.lat) (Histogram.max s.lat) (p s.lat 50.0) (p s.lat 99.9)
    (Histogram.count s.pauses) (Histogram.sum s.pauses) (p s.pauses 50.0)
    s.pause_max

let pool_sims = function
  | [] -> invalid_arg "pool_sims"
  | s :: rest ->
      List.fold_left
        (fun a b ->
          {
            lat = Histogram.merge a.lat b.lat;
            good = a.good + b.good;
            attempted = a.attempted + b.attempted;
            failed = a.failed + b.failed;
            finished = a.finished + b.finished;
            sim_s = a.sim_s +. b.sim_s;
            pauses = Histogram.merge a.pauses b.pauses;
            pause_max = Float.max a.pause_max b.pause_max;
          })
        s rest

type opts = {
  obs : bool;  (** arm the event sinks and export + analyse the traces *)
  ring : int;
  tamper : bool;  (** corrupt the written report before validating it *)
  verify : bool;
      (** fleet only: run the collector's heap verifier at every cycle
          boundary of every shard *)
}

(* Reports, traces and the benchmark's span trace, relative to the
   repository root the benchmark runs from.  Artefacts are named after
   the workload, not the seed: each repetition overwrites the last one's,
   so runs on many seeds do not fill the disk (the traced serve-cgc
   repetition writes a 190 MB trace). *)
let out_dir = Filename.concat ".bench_build" "perfbench"

type rep = {
  sim : sim;
  host_words : float;  (** minor words the measured window allocated *)
  layer : (string * float) list;
}

let f = float_of_int
let mslots n = f n /. 1e6
let hmax h = if Histogram.count h = 0 then 0.0 else Histogram.max h

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The self-test's tampering: bump one blame component of the first
   serialised span, which breaks the conservation identity. *)
let tamper s =
  let key = "\"queueCycles\": " in
  let n = String.length key in
  let rec find i =
    if i + n > String.length s then fail "tamper: no blame object"
    else if String.sub s i n = key then i + n
    else find (i + 1)
  in
  let at = find 0 in
  String.sub s 0 at ^ "9" ^ String.sub s at (String.length s - at)

let validate ~what ~opts validator path =
  let s = read_file path in
  let s = if opts.tamper then tamper s else s in
  match validator s with
  | Ok _ -> ()
  | Error msg -> fail "%s report %s rejected: %s" what path msg

let check_drops what o =
  let d = Obs.dropped o in
  if d > 0 then
    fail "%s: %d of %d trace events dropped by the rings (tid:dropped %s)" what d
      (Obs.emitted o)
      (String.concat " "
         (List.map (fun (t, n) -> Printf.sprintf "%d:%d" t n) (Obs.dropped_by_thread o)))

(* Heap walk after the measured window, outside every timed span and
   after every figure has been read from the VM.  The walk needs a
   consistent heap: a high-priority simulated thread retires every
   mutator's allocation cache, as at a cycle boundary, and verifies in
   the same dispatch, so no other thread runs in between. *)
let verify_heap vm =
  let coll = Vm.collector vm in
  let result = ref None in
  ignore
    (Cgc_sim.Sched.spawn (Vm.sched vm) ~name:"perfbench-verify"
       ~prio:Cgc_sim.Sched.High (fun () ->
         let muts = Collector.mutators coll in
         List.iter
           (fun (m : Cgc_core.Mctx.t) ->
             Cgc_heap.Heap.retire_cache (Vm.heap vm) m.Cgc_core.Mctx.cache)
           muts;
         result :=
           Some
             (match
                Cgc_core.Verify.check ~heap:(Vm.heap vm)
                  ~roots:(List.map (fun (m : Cgc_core.Mctx.t) -> m.Cgc_core.Mctx.roots) muts)
                  ~globals:(Collector.globals_array coll) ~expect_marked:false
                  ~expect_clean_cards:false ~label:"after the measured window"
              with
             | _ -> None
             | exception Cgc_core.Verify.Invariant_violation msg -> Some msg)));
  let tries = ref 0 in
  while !result = None && !tries < 100 do
    Vm.run vm ~ms:0.1;
    incr tries
  done;
  match !result with
  | Some None -> ()
  | Some (Some msg) -> fail "heap verifier: %s" msg
  | None -> fail "heap verifier never ran"

(* Blame means of the server layer, in simulated ms. *)
let blame_layer (sum : Span.summary) =
  let per c =
    if sum.Span.count = 0 || sum.Span.cycles_per_ms <= 0.0 then 0.0
    else f c /. f sum.Span.count /. sum.Span.cycles_per_ms
  in
  let b = sum.Span.sum in
  [
    ("server.queue_ms_mean", per b.Span.queue);
    ("server.gc_queue_ms_mean", per b.Span.gc_queue);
    ("server.service_ms_mean", per b.Span.service);
    ("server.gc_service_ms_mean", per b.Span.gc_service);
  ]

let server_layer (tot : Server.totals) =
  blame_layer tot.Server.spans
  @ [
      ("server.max_queue_depth", f tot.Server.max_depth);
      ("server.shed", f (tot.Server.shed_full + tot.Server.shed_throttled));
      ("server.timed_out", f tot.Server.timed_out);
    ]

(* Counters of one VM's measured window: runtime, sim, smp, heap,
   packets, core and gen layers. *)
let vm_layer run vm =
  let st = Vm.gc_stats vm in
  let sc = Vm.sched vm in
  let mach = Vm.machine vm in
  let pool = Collector.pool (Vm.collector vm) in
  let busy = Cgc_sim.Sched.busy_cycles sc and idle = Cgc_sim.Sched.idle_cycles sc in
  let conc = Stats.sum st.Gstats.traced_conc_slots
  and stw = Stats.sum st.Gstats.traced_stw_slots in
  let alloc = st.Gstats.total_alloc_slots in
  [
    ("runtime.create_s", Probe.secs run "Vm.create");
    ("runtime.warmup_s", Probe.secs run "Vm.run.warmup");
    ("runtime.run_s", Probe.secs run "Vm.run");
    ("runtime.run_mwords", Probe.words run "Vm.run" /. 1e6);
    ("sim.busy_frac", if busy + idle = 0 then 0.0 else f busy /. f (busy + idle));
    ("smp.fences", f (Cgc_smp.Fence.total mach.Cgc_smp.Machine.fences));
    ("smp.cas", f mach.Cgc_smp.Machine.cas_ops);
    ("heap.alloc_mslots", mslots alloc);
    ("packets.get_ops", f (Cgc_packets.Pool.get_ops pool));
    ("packets.put_ops", f (Cgc_packets.Pool.put_ops pool));
    ("packets.max_in_use", f (Cgc_packets.Pool.max_in_use pool));
    ("packets.max_deferred", f st.Gstats.max_deferred_packets);
    ("packets.overflows", f st.Gstats.overflow_events);
    ("core.cycles", f st.Gstats.cycles);
    ("core.traced_conc_mslots", conc /. 1e6);
    ("core.traced_stw_mslots", stw /. 1e6);
    ("core.conc_frac", if conc +. stw = 0.0 then 0.0 else conc /. (conc +. stw));
    ("core.cards_conc", Stats.sum st.Gstats.conc_cards);
    ("core.cards_stw", Stats.sum st.Gstats.stw_cards);
    ("core.mark_p50_ms", Probe.percentile st.Gstats.mark_ms 50.0);
    ("core.sweep_p50_ms", Probe.percentile st.Gstats.sweep_ms 50.0);
    ("core.tracing_factor", Stats.mean st.Gstats.tracing_factor);
    ("core.halted_cycles", f st.Gstats.halted_cycles);
    ( "core.degrade_rungs",
      f
        (st.Gstats.degrade_force_finish + st.Gstats.degrade_full_stw
       + st.Gstats.degrade_compact) );
    ("gen.minors", f st.Gstats.minors);
    ("gen.minor_p50_ms", Probe.percentile st.Gstats.minor_pause_ms 50.0);
    ("gen.minor_max_ms", hmax st.Gstats.minor_pause_ms);
    ("gen.minor_ms_total", Histogram.sum st.Gstats.minor_pause_ms);
    ("gen.promoted_mslots", mslots st.Gstats.promoted_slots);
    ( "gen.promotion_frac",
      if alloc = 0 then 0.0 else f st.Gstats.promoted_slots /. f alloc );
    ("gen.minor_deferred", f st.Gstats.minor_deferred);
    ( "gen.pinned_slots",
      match Vm.gen vm with Some g -> f (Cgc_gen.Gen.pinned_slots g) | None -> 0.0 );
  ]

(* The world-stopping pauses, plus the minor pauses that stop the
   allocating mutator under the generational collector. *)
let vm_pauses vm =
  let st = Vm.gc_stats vm in
  let h = Histogram.merge st.Gstats.pause_ms st.Gstats.minor_pause_ms in
  (h, hmax h)

(* Inside the measured window of a traced VM: export the trace, analyse
   it and write the analysis report.  Returns the obs/prof/analysis
   figures. *)
let export_and_analyse run ~name vm =
  let o = Vm.obs vm in
  let path = Filename.concat out_dir (name ^ ".trace.json") in
  (* Only the length outlives the write, so the string is garbage before
     the analysis builds its own copy of the events. *)
  let trace_bytes =
    let json = Probe.span "Vm.trace_json" (fun () -> Vm.trace_json vm) in
    Probe.span "Export.write_file" (fun () -> Export.write_file path json);
    String.length json
  in
  let a =
    Probe.span "Analysis.analyse_events" (fun () ->
        Analysis.analyse_events ~cycles_per_us:(Vm.cycles_per_us vm)
          (Obs.events_array o))
  in
  let apath = Filename.concat out_dir (name ^ ".analysis.json") in
  Probe.span "Prof.Report.write" (fun () ->
      Export.write_file apath
        (Json.to_string ~pretty:true
           (Cgc_prof.Report.to_json ~label:name ~emitted:(Obs.emitted o)
              ~dropped:(Obs.dropped o) a)));
  let export_s = Probe.secs run "Vm.trace_json" +. Probe.secs run "Export.write_file" in
  let events = Obs.emitted o in
  let mmu20 =
    List.fold_left
      (fun acc (p : Analysis.mmu_point) ->
        if p.Analysis.window_ms = 20.0 then p.Analysis.mmu else acc)
      0.0 a.Analysis.mmu
  in
  [
    ("obs.events", f events);
    ("obs.dropped", f (Obs.dropped o));
    ("obs.export_s", export_s);
    ( "obs.export_mwords",
      (Probe.words run "Vm.trace_json" +. Probe.words run "Export.write_file") /. 1e6 );
    ( "obs.export_ns_per_event",
      if events = 0 then 0.0 else export_s *. 1e9 /. f events );
    ("obs.trace_mb", f trace_bytes /. 1048576.0);
    ("prof.analyse_s", Probe.secs run "Analysis.analyse_events");
    ("core.mmu_20ms", mmu20);
    ("packets.busy_cv", a.Analysis.balance.Analysis.busy_cv);
  ]

(* ------------------------------ serve ------------------------------ *)

let serve_warmup_ms = 500.0
let serve_ms = 8000.0

let serve ~gen ~opts ~seed run =
  let name = if gen then "serve-gen" else "serve-cgc" in
  let gc = if gen then Config.gen else Config.default in
  let scfg = Server.cfg ~rate_per_s:12000.0 ~workers:4 ~slo_ms:limit_ms () in
  let vm, srv =
    Probe.span "setup" (fun () ->
        let vm =
          Probe.span "Vm.create" (fun () ->
              Vm.create
                (Vm.config ~heap_mb:24.0 ~ncpus:4 ~seed ~gc ~trace:opts.obs
                   ~trace_ring:opts.ring ()))
        in
        let srv = Probe.span "Server.create" (fun () -> Server.create scfg vm) in
        (* Vm.run_measured, split at its warm-up boundary. *)
        Probe.span "Vm.run.warmup" (fun () -> Vm.run vm ~ms:serve_warmup_ms);
        Probe.span "Vm.reset_stats" (fun () -> Vm.reset_stats vm);
        (vm, srv))
  in
  let path = Filename.concat out_dir (name ^ ".report.json") in
  let tot, traced =
    Probe.span "measure" (fun () ->
        Probe.span "Vm.run" (fun () -> Vm.run vm ~ms:serve_ms);
        let tot = Probe.span "Server.totals" (fun () -> Server.totals srv) in
        Probe.span "Report.write" (fun () ->
            Export.write_file path
              (Json.to_string ~pretty:true
                 (Server_report.to_json scfg ~ran_ms:serve_ms tot)));
        let traced =
          if opts.obs then export_and_analyse run ~name vm else []
        in
        (tot, traced))
  in
  validate ~what:"server" ~opts Server_report.validate path;
  if opts.obs then check_drops name (Vm.obs vm);
  let pauses, pause_max = vm_pauses vm in
  let sim =
    {
      lat = Latency.e2e tot.Server.lat;
      good = tot.Server.completed - tot.Server.slo_violations;
      attempted = tot.Server.arrived;
      failed = tot.Server.shed_full + tot.Server.shed_throttled + tot.Server.timed_out;
      finished = tot.Server.completed;
      sim_s = serve_ms /. 1000.0;
      pauses;
      pause_max;
    }
  in
  let rep =
    {
      sim;
      host_words = Probe.words run "measure";
      layer =
        (("server.report_s", Probe.secs run "Report.write") :: vm_layer run vm)
        @ server_layer tot @ traced;
    }
  in
  verify_heap vm;
  rep

(* ------------------------------- jbb ------------------------------- *)

let jbb_warmup_ms = 500.0
let jbb_ms = 1000.0
let jbb_warehouses = 8

(* The SPECjbb warehouse loop ([Txmix.body]) with every transaction
   timed on the simulated clock: a closed loop with no think time, so a
   transaction's duration is its response time. *)
let timed_body ~cycles_per_ms profile lat good m =
  let dir = Txmix.build_resident profile m in
  while not (Mutator.stopped m) do
    let t0 = Mutator.now_cycles m in
    Txmix.transaction profile m ~dir;
    let ms = f (Mutator.now_cycles m - t0) /. cycles_per_ms in
    Histogram.add lat ms;
    if ms <= limit_ms then incr good
  done

let jbb ~opts ~seed run =
  let name = "jbb-traced" in
  let lat = Histogram.create () and good = ref 0 in
  let vm =
    Probe.span "setup" (fun () ->
        let vm =
          Probe.span "Vm.create" (fun () ->
              Vm.create
                (Vm.config ~heap_mb:48.0 ~ncpus:4 ~seed ~gc:Config.default
                   ~trace:opts.obs ~trace_ring:opts.ring ()))
        in
        (* As [Specjbb.setup]: 8 warehouses sized to 60% residency. *)
        let nslots = Cgc_heap.Heap.nslots (Vm.heap vm) in
        let profile =
          Txmix.scale_residency Cgc_workloads.Specjbb.base_profile
            ~target_slots:(int_of_float (f nslots *. 0.6) / jbb_warehouses)
        in
        for w = 1 to jbb_warehouses do
          Vm.spawn_mutator vm
            ~name:(Printf.sprintf "warehouse-%d" w)
            (timed_body ~cycles_per_ms:(Vm.cycles_per_us vm *. 1000.0)
               profile lat good)
        done;
        Vm.on_reset vm (fun () ->
            Histogram.clear lat;
            good := 0);
        Probe.span "Vm.run.warmup" (fun () -> Vm.run vm ~ms:jbb_warmup_ms);
        Probe.span "Vm.reset_stats" (fun () -> Vm.reset_stats vm);
        vm)
  in
  let csv = Filename.concat out_dir (name ^ ".cycles.csv") in
  let traced =
    Probe.span "measure" (fun () ->
        Probe.span "Vm.run" (fun () -> Vm.run vm ~ms:jbb_ms);
        Probe.span "Vm.write_metrics" (fun () -> Vm.write_metrics vm csv);
        if opts.obs then export_and_analyse run ~name vm else [])
  in
  (match Export.parse_csv (read_file csv) with
  | Ok (Some schema, _, _) when schema = Vm.cycles_schema -> ()
  | Ok _ -> fail "%s: cycle CSV lacks its schema line" csv
  | Error msg -> fail "%s: %s" csv msg);
  if opts.obs then begin
    let apath = Filename.concat out_dir (name ^ ".analysis.json") in
    match Json.parse (read_file apath) with
    | Ok _ -> ()
    | Error msg -> fail "%s: %s" apath msg
  end;
  if opts.obs then check_drops name (Vm.obs vm);
  let txs = Vm.total_transactions vm in
  if Histogram.count lat <> txs then
    fail "jbb: %d timed transactions but the VM counted %d" (Histogram.count lat) txs;
  let pauses, pause_max = vm_pauses vm in
  let sim =
    {
      (* A copy: the heap check below runs the VM on. *)
      lat = Histogram.merge lat (Histogram.create ());
      good = !good;
      attempted = txs;
      failed = 0;
      finished = txs;
      sim_s = jbb_ms /. 1000.0;
      pauses;
      pause_max;
    }
  in
  let rep =
    { sim; host_words = Probe.words run "measure"; layer = vm_layer run vm @ traced }
  in
  verify_heap vm;
  rep

(* ------------------------------ fleet ------------------------------ *)

let fleet_ms = 4000.0
let fleet_domains = 2

(* Minor words allocated so far by all the pool's domains, read on each
   of them at once: every job waits until all have started, so no domain
   runs two.  A domain's own counter is exact, which a process-wide
   count read on one domain is not. *)
let pool_words pool =
  let n = Dpool.size pool in
  let started = Atomic.make 0 in
  let words = Array.make n 0.0 in
  Dpool.run pool ~n (fun i ->
      Atomic.incr started;
      while Atomic.get started < n do
        Domain.cpu_relax ()
      done;
      words.(i) <- Gc.minor_words ());
  Array.fold_left ( +. ) 0.0 words

let fleet ~opts ~seed run =
  let name = "fleet-chaos" in
  let pool, cfg, w0 =
    Probe.span "setup" (fun () ->
        let pool =
          Probe.span "Dpool.create" (fun () -> Dpool.create ~domains:fleet_domains)
        in
        let cfg =
          Cluster.cfg ~shards:4 ~policy:Cgc_cluster.Balancer.Least_queue
            ~rate_per_s:24000.0 ~heap_mb:24.0 ~ncpus:4 ~seed ~ms:fleet_ms
            ~slo_ms:limit_ms ~chaos:Cgc_fault.Cluster_fault.Shard_restart
            ~gc:{ Config.default with Config.verify = opts.verify }
            ~trace:opts.obs ~trace_ring:opts.ring ()
        in
        (* The first batch wakes the worker domain. *)
        let w0 = Probe.span "Dpool.run" (fun () -> pool_words pool) in
        (pool, cfg, w0))
  in
  let path = Filename.concat out_dir (name ^ ".report.json") in
  let r, cpu_s =
    Probe.span "measure" (fun () ->
        let cpu0 = Sys.time () in
        let r = Probe.span "Cluster.run" (fun () -> Cluster.run ~pool cfg) in
        let cpu_s = Sys.time () -. cpu0 in
        Probe.span "Report.write" (fun () ->
            Export.write_file path
              (Json.to_string ~pretty:true (Cluster_report.to_json r)));
        if opts.obs then
          Probe.span "Export.write_file" (fun () ->
              Array.iteri
                (fun k (s : Cgc_cluster.Shard.result) ->
                  Option.iter
                    (Export.write_file
                       (Filename.concat out_dir
                          (Printf.sprintf "%s.inc%d.trace.json" name k)))
                    s.Cgc_cluster.Shard.trace)
                r.Cluster.shards);
        (r, cpu_s))
  in
  let host_words = pool_words pool -. w0 in
  Dpool.shutdown pool;
  validate ~what:"cluster" ~opts Cluster_report.validate path;
  let shards = r.Cluster.shards in
  let dropped =
    Array.fold_left (fun a (s : Cgc_cluster.Shard.result) -> a + s.Cgc_cluster.Shard.dropped) 0 shards
  in
  if opts.obs && dropped > 0 then
    fail "%s: %d trace events dropped by the rings" name dropped;
  let tot = Cluster.fleet_totals r in
  let ch = r.Cluster.chaos in
  (* World-stopping time per shard and 10 ms timeline bin: one pause per
     bin unless two share it or one straddles a bin edge. *)
  let pauses = Histogram.create () in
  let pause_max = ref 0.0 in
  Array.iter
    (fun (s : Cgc_cluster.Shard.result) ->
      Array.iter (fun ms -> if ms > 0.0 then Histogram.add pauses ms) s.Cgc_cluster.Shard.stopped_ms;
      pause_max := Float.max !pause_max s.Cgc_cluster.Shard.max_pause_ms)
    shards;
  let lost = ch.Cluster.lost_unroutable + Cluster.lost_crashed r in
  let sim =
    {
      lat = Latency.e2e tot.Server.lat;
      good = tot.Server.completed - tot.Server.slo_violations;
      attempted = ch.Cluster.drawn;
      failed =
        tot.Server.shed_full + tot.Server.shed_throttled + tot.Server.timed_out
        + ch.Cluster.shed_fleet + lost;
      finished = tot.Server.completed;
      sim_s = fleet_ms /. 1000.0;
      pauses;
      pause_max = !pause_max;
    }
  in
  let routed = Array.make cfg.Cluster.shards 0.0 in
  Array.iter
    (fun (s : Cgc_cluster.Shard.result) ->
      let id = s.Cgc_cluster.Shard.id in
      routed.(id) <- routed.(id) +. f s.Cgc_cluster.Shard.routed)
    shards;
  let routed_stats = Stats.create () in
  Array.iter (Stats.add routed_stats) routed;
  let traced =
    if not opts.obs then []
    else
      let events =
        Array.fold_left (fun a (s : Cgc_cluster.Shard.result) -> a + s.Cgc_cluster.Shard.emitted) 0 shards
      in
      let bytes =
        Array.fold_left
          (fun a (s : Cgc_cluster.Shard.result) ->
            a + match s.Cgc_cluster.Shard.trace with Some t -> String.length t | None -> 0)
          0 shards
      in
      let export_s = Probe.secs run "Export.write_file" in
      [
        ("obs.events", f events);
        ("obs.dropped", f dropped);
        ("obs.export_s", export_s);
        ("obs.export_mwords", Probe.words run "Export.write_file" /. 1e6);
        ("obs.export_ns_per_event", if events = 0 then 0.0 else export_s *. 1e9 /. f events);
        ("obs.trace_mb", f bytes /. 1048576.0);
      ]
  in
  let mean = Stats.mean routed_stats in
  let layer =
    [
      ("cluster.pool_s", Probe.secs run "Dpool.create" +. Probe.secs run "Dpool.run");
      ("cluster.run_s", Probe.secs run "Cluster.run");
      ("cluster.cpu_s", cpu_s);
      ("cluster.incarnations", f (Array.length shards));
      ("cluster.retried", f ch.Cluster.retried);
      ("cluster.redirected", f ch.Cluster.redirected);
      ("cluster.lost", f lost);
      ("cluster.availability", Cluster.availability r);
      ("cluster.ttr_ms", Option.value ch.Cluster.ttr_ms ~default:0.0);
      ("cluster.routed_cv", if mean = 0.0 then 0.0 else Stats.stddev routed_stats /. mean);
      ("cluster.report_s", Probe.secs run "Report.write");
      ("core.cycles", f (Array.fold_left (fun a (s : Cgc_cluster.Shard.result) -> a + s.Cgc_cluster.Shard.gc_cycles) 0 shards));
    ]
    @ server_layer tot @ traced
  in
  { sim; host_words; layer }

let run kind ~opts ~seed =
  let run = Probe.new_run () in
  let rep =
    Probe.span "rep" (fun () ->
        match kind with
        | Serve_cgc -> serve ~gen:false ~opts ~seed run
        | Serve_gen -> serve ~gen:true ~opts ~seed run
        | Jbb_traced -> jbb ~opts ~seed run
        | Fleet_chaos -> fleet ~opts ~seed run)
  in
  (run, rep)
