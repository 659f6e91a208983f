(* cgcsim — command-line driver for the collector simulator.

   Run a workload under either collector with custom parameters and print
   the VM report:

     dune exec bin/cgcsim.exe -- run --workload specjbb --collector cgc \
       --warehouses 8 --heap-mb 64 --ms 4000 --tracing-rate 8

   Or run one of the paper-reproduction experiments:

     dune exec bin/cgcsim.exe -- experiment fig1

   The shared flags live in [Flags]; this file holds the subcommands. *)

open Cmdliner
open Term.Syntax

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Verify = Cgc_core.Verify
module Cluster_fault = Cgc_fault.Cluster_fault
module Exit_codes = Cgc_cli.Exit_codes
module Export = Cgc_obs.Export

(* Top-level catch for the typed failure modes: a diagnosed out-of-memory
   (the degradation ladder was exhausted), an invariant violation from
   the --verify checker, and a fleet whose own degradation ladder
   bottomed out all exit nonzero with the diagnostic record
   pretty-printed instead of an uncaught-exception backtrace. *)
let catching_failures f =
  try f () with
  | Collector.Out_of_memory d ->
      Printf.eprintf "cgcsim: %s\n" (Collector.oom_to_string d);
      exit Exit_codes.oom
  | Verify.Invariant_violation msg ->
      Printf.eprintf "cgcsim: heap invariant violated: %s\n" msg;
      exit Exit_codes.invariant
  | Cgc_cluster.Cluster.Fleet_unavailable d ->
      Printf.eprintf "cgcsim: %s\n"
        (Cgc_cluster.Cluster.unavailable_to_string d);
      exit Exit_codes.fleet

(* A library constructor's [Invalid_argument] is a usage error. *)
let build f = try f () with Invalid_argument msg -> Flags.die "%s" msg

(* Every subcommand documents the same exit statuses: the table in
   Exit_codes, not cmdliner's defaults. *)
let exits =
  List.map
    (fun (c : Exit_codes.code) -> Cmd.Exit.info c.Exit_codes.value ~doc:c.Exit_codes.meaning)
    Exit_codes.all

let command name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

let run_cmd =
  command "run" ~doc:"Run a workload under the simulated collector."
  @@
  let tune =
    let+ n_background =
      Arg.(value & opt int 4 & info [ "background" ] ~doc:"Background GC threads.")
    and+ n_packets =
      Arg.(value & opt (Flags.int_at_least 2) 1000 & info [ "packets" ] ~doc:"Work packets in the pool.")
    and+ lazy_sweep =
      Arg.(value & flag & info [ "lazy-sweep" ] ~doc:"Sweep outside the pause (section 7).")
    and+ compaction =
      Arg.(value & flag & info [ "compaction" ] ~doc:"Evacuate one heap area per cycle (section 2.3).")
    and+ card_passes =
      Arg.(value & opt int 1 & info [ "card-passes" ] ~doc:"Concurrent card-cleaning passes.")
    in
    fun gc ->
      { gc with Config.n_background; n_packets; lazy_sweep; compaction; card_passes }
  in
  let+ workload =
    let doc = "Workload: specjbb, pbob or javac." in
    let workloads = [ ("specjbb", `Specjbb); ("pbob", `Pbob); ("javac", `Javac) ] in
    Arg.(value & opt (enum workloads) `Specjbb & info [ "workload"; "w" ] ~doc)
  and+ warehouses =
    (* pBOB pins one global root per warehouse. *)
    let warehouses =
      Flags.checked
        ~expected:(Printf.sprintf "1 to %d warehouses" Collector.n_globals)
        (fun n -> n >= 1 && n <= Collector.n_globals)
        Arg.int
    in
    Arg.(value & opt warehouses 8 & info [ "warehouses" ] ~doc:"Warehouse count.")
  and+ { Flags.gc; heap_mb; ncpus; ms; seed } =
    Flags.vm ~tune ~heap_mb:64.0 ~ms:4000.0 ()
  and+ { Flags.out = trace_out; ring = trace_ring } =
    let doc =
      "Write a Chrome trace-event JSON file (load in Perfetto or \
       chrome://tracing).  Arms the event-tracing sink for the run."
    in
    Flags.trace ~doc ~ring:65536 ()
  and+ metrics_out = Flags.metrics_out () in
  let trace = trace_out <> None in
  let vm =
    catching_failures (fun () ->
        match workload with
        | `Specjbb ->
            Cgc_workloads.Specjbb.run ~warehouses ~gc ~heap_mb ~ncpus ~seed
              ~trace ~trace_ring ~ms ()
        | `Pbob ->
            Cgc_workloads.Pbob.run ~warehouses ~gc ~heap_mb ~ncpus ~seed ~trace
              ~trace_ring ~ms ()
        | `Javac ->
            Cgc_workloads.Javac.run ~gc ~heap_mb ~ncpus ~seed ~trace ~trace_ring
              ~ms ())
  in
  Vm.print_report vm;
  Flags.output "trace" (Vm.write_trace vm) trace_out;
  Flags.output "per-cycle metrics" (Vm.write_metrics vm) metrics_out

(* ------------------------------------------------------------------ *)
(* cgcsim analyze — the offline profiler.

   Four sources, one output: derived metrics (MMU curves, load-balance
   quality, pause distribution, per-event attribution) as text tables
   and optionally as versioned JSON.

     cgcsim analyze --trace trace.json            # a written trace file
     cgcsim analyze --trace fleet                 # fleet.shard*.json traces
     cgcsim analyze --metrics runs.csv            # schema-check a CSV dump
     cgcsim analyze --report fleet.json --tails 8 # worst-span forensics
     cgcsim analyze --report fleet.json --lbo     # distilled GC cost
     cgcsim analyze --bench BENCH.json --lbo      # distill a bench matrix

   When --trace names no file, it is treated as a cluster --trace-out
   prefix and every PREFIX.shard<K>.json / PREFIX.shard<K>.r<I>.json
   trace is analyzed in turn (--fail-on-drops then covers all of them).

   Exit codes: 4 = unreadable/incompatible input (schema mismatch or a
   broken blame-conservation identity), 5 = the input lost events to
   ring overflow and --fail-on-drops was given. *)

module Analysis = Cgc_prof.Analysis
module Prof_report = Cgc_prof.Report
module Tails = Cgc_prof.Tails

let schema_error file msg =
  Printf.eprintf "cgcsim: %s: %s\n" file msg;
  exit Exit_codes.schema

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Printf.eprintf "cgcsim: cannot read %s: %s\n" path msg;
    exit Exit_codes.schema

let known_csv_schemas =
  [ Vm.cycles_schema; Cgc_experiments.Common.runs_schema ]

let fail_on_drops_if enabled ~what dropped =
  if enabled && dropped > 0 then begin
    Printf.eprintf "cgcsim: %d events dropped by ring overflow%s (--fail-on-drops)\n"
      dropped what;
    exit Exit_codes.drops
  end

(* Expand a cluster --trace-out prefix into its per-incarnation trace
   files, sorted so the order is deterministic. *)
let expand_trace_prefix prefix =
  let dir = Filename.dirname prefix in
  let base = Filename.basename prefix ^ ".shard" in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list names
  |> List.filter (fun n ->
         String.starts_with ~prefix:base n
         && String.length n > String.length base
         && Filename.check_suffix n ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let analyze_trace ~mmu_windows_ms ~json_out ~fail_on_drops file =
  match Export.parse_chrome_json (read_file file) with
  | Error msg -> schema_error file msg
  | Ok (meta, events) ->
      let dropped = meta.Export.dropped in
      let a =
        Analysis.analyse_events ?mmu_windows_ms
          ~cycles_per_us:meta.Export.cycles_per_us (Array.of_list events)
      in
      print_string (Prof_report.summary ~dropped a);
      Flags.output "analysis"
        (Flags.json_file
           (Prof_report.to_json ~label:file ~emitted:meta.Export.emitted ~dropped a))
        json_out;
      fail_on_drops_if fail_on_drops ~what:"" dropped

let analyze_report ~tails_n ~lbo ~json_out ~fail_on_drops file =
  let contents = read_file file in
  let t = match Tails.of_report contents with Ok t -> t | Error msg -> schema_error file msg in
  (* Full round-trip validation, including the blame conservation
     identity. *)
  (let validate =
     if t.Tails.source = Cgc_server.Report.schema then Cgc_server.Report.validate
     else Cgc_cluster.Report.validate
   in
   match validate contents with Ok _ -> () | Error msg -> schema_error file msg);
  (if lbo then
     match Tails.lbo_of_report contents with
     | Error msg -> schema_error file msg
     | Ok row ->
         print_string (Tails.lbo_text [ row ]);
         Flags.output "LBO distillation" (Flags.json_file (Tails.lbo_json [ row ])) json_out
   else begin
     print_string (Tails.text ~n:tails_n t);
     Flags.output "tail forensics" (Flags.json_file (Tails.to_json ~n:tails_n t)) json_out
   end);
  fail_on_drops_if fail_on_drops ~what:" across the report's shards" t.Tails.dropped

let analyze_metrics file =
  match Export.parse_csv (read_file file) with
  | Error msg -> schema_error file msg
  | Ok (schema, header, rows) ->
      let known = String.concat ", " known_csv_schemas in
      (match schema with
      | None ->
          schema_error file ("no #schema= line (pre-v1 file?); known schemas: " ^ known)
      | Some s when not (List.mem s known_csv_schemas) ->
          schema_error file (Printf.sprintf "unsupported schema %S; known schemas: %s" s known)
      | Some s ->
          Printf.printf "%s: schema %s, %d columns, %d rows\n" file s
            (List.length header) (List.length rows));
      List.iter
        (fun r ->
          if List.length r <> List.length header then
            schema_error file
              (Printf.sprintf "row width %d does not match header width %d"
                 (List.length r) (List.length header)))
        rows

let analyze_cmd =
  command "analyze"
    ~doc:
      "Derive profiling metrics (MMU, load balance, pauses) from a trace \
       file, validate a metrics CSV, or run tail forensics and LBO \
       distillation on a report."
  @@
  let file name ~doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  let+ trace_in =
    file "trace"
      ~doc:
        "Analyze a Chrome trace-event JSON file written by $(b,run \
         --trace-out) (or $(b,bench)).  If $(docv) is not a file it is \
         treated as a $(b,cluster --trace-out) prefix and every \
         $(docv).shard<K>.json trace is analyzed."
  and+ report_in =
    file "report"
      ~doc:
        "Tail forensics on a serialised report ($(b,serve --json) or \
         $(b,cluster --json); $(b,cgcsim-server-v2) or \
         $(b,cgcsim-cluster-v3)): re-check the \
         blame conservation identity, then print the fleet blame \
         decomposition and the worst-request causal chains."
  and+ bench_in =
    file "bench"
      ~doc:
        "Distill the LBO GC cost from a $(b,cgcsim-bench-v1) document \
         (requires $(b,--lbo))."
  and+ metrics_in =
    file "metrics"
      ~doc:
        "Validate a metrics CSV file ($(b,run --metrics-out) or \
         $(b,experiment --metrics-out)) against its $(b,#schema=) line and \
         summarise it."
  and+ tails_n =
    let doc = "How many worst-request causal chains to show (with --report)." in
    Arg.(value & opt int 16 & info [ "tails" ] ~docv:"N" ~doc)
  and+ lbo =
    let doc =
      "Report the LBO-distilled GC cost: each cell's fractional latency \
       (or throughput) distance above its group's lower-bound baseline."
    in
    Arg.(value & flag & info [ "lbo" ] ~doc)
  and+ mmu_windows_ms =
    let doc = "Comma-separated MMU window sizes in ms (default 1,5,20,50)." in
    Arg.(value & opt (some (list float)) None & info [ "mmu-windows" ] ~docv:"MS,MS,..." ~doc)
  and+ json_out =
    Flags.json
      ~doc:
        "Also write the analysis ($(b,cgcsim-analysis-v1)), the tail \
         forensics or the LBO distillation as JSON to $(docv)."
  and+ fail_on_drops =
    let doc =
      "Exit 5 if the analyzed trace lost any events to ring overflow — \
       derived metrics from a truncated trace are not trustworthy."
    in
    Arg.(value & flag & info [ "fail-on-drops" ] ~doc)
  in
  let analyze_trace = analyze_trace ~mmu_windows_ms ~fail_on_drops in
  match (trace_in, report_in, bench_in, metrics_in) with
  | Some file, None, None, None -> (
      if Sys.file_exists file then analyze_trace ~json_out file
      else
        match expand_trace_prefix file with
        | [] ->
            Printf.eprintf
              "cgcsim: cannot read %s: no such file and no %s.shard*.json traces\n"
              file file;
            exit Exit_codes.schema
        | [ shard_trace ] -> analyze_trace ~json_out shard_trace
        | traces ->
            if json_out <> None then
              Flags.die "--json is not supported when --trace expands to %d shard traces"
                (List.length traces);
            List.iter
              (fun shard_trace ->
                Printf.printf "=== %s ===\n" shard_trace;
                analyze_trace ~json_out:None shard_trace)
              traces)
  | None, Some file, None, None ->
      analyze_report ~tails_n ~lbo ~json_out ~fail_on_drops file
  | None, None, Some file, None -> (
      if not lbo then Flags.die "analyze --bench requires --lbo";
      match Tails.lbo_of_bench (read_file file) with
      | Error msg -> schema_error file msg
      | Ok rows ->
          print_string (Tails.lbo_text rows);
          Flags.output "LBO distillation" (Flags.json_file (Tails.lbo_json rows)) json_out)
  | None, None, None, Some file -> analyze_metrics file
  | _ ->
      Flags.die
        "analyze needs exactly one of --trace FILE, --report FILE, --bench FILE \
         or --metrics FILE"

(* ------------------------------------------------------------------ *)
(* cgcsim serve — the open-loop request/latency subsystem.

   A deterministic server simulation: an arrival process (Poisson,
   constant-rate or bursty) feeds a bounded queue drained by worker
   mutators, with drop-newest shedding and an optional admission
   throttle.  Prints an SLO report (end-to-end latency decomposed into
   queueing / service / GC inflation) and optionally writes it as
   cgcsim-server-v2 JSON.

     cgcsim serve --rate 6000 --collector stw --heap-mb 24 --ms 2000 \
       --slo-ms 50 --json report.json

   Exit code 6: an SLO was configured (--slo-ms) and attainment fell
   below --slo-target. *)

module Server = Cgc_server.Server
module Server_report = Cgc_server.Report

let serve_cmd =
  command "serve"
    ~doc:
      "Run the deterministic open-loop request/latency simulation and print \
       its SLO report."
  @@
  let+ { Flags.gc; heap_mb; ncpus; ms; seed } =
    Flags.vm ~heap_mb:24.0 ~ms:2000.0 ~ms_doc:"Simulated milliseconds measured." ()
  and+ s = Flags.server ~rate:4000.0 ()
  and+ warmup_ms =
    let doc = "Warm-up window discarded before measuring." in
    Arg.(value & opt float 0.0 & info [ "warmup-ms" ] ~doc)
  and+ { Flags.out = trace_out; ring = trace_ring } =
    let doc = "Write a Chrome trace-event JSON file (arms the event sink)." in
    Flags.trace ~doc ~ring:(1 lsl 17) ()
  and+ metrics_out = Flags.metrics_out ()
  and+ json_out = Flags.json ~doc:"Write the $(b,cgcsim-server-v2) SLO report to $(docv)." in
  let throttle_hi, throttle_lo = s.Flags.throttle in
  let scfg =
    build (fun () ->
        Server.cfg ~arrival:s.Flags.arrival ~queue_cap:s.Flags.queue
          ~workers:s.Flags.workers ~timeout_ms:s.Flags.timeout_ms
          ~slo_ms:s.Flags.slo_ms ~slo_target:s.Flags.slo_target ~throttle_hi
          ~throttle_lo ~rate_per_s:s.Flags.rate ())
  in
  let trace = trace_out <> None in
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ~trace_ring ()) in
  let srv = Server.create scfg vm in
  catching_failures (fun () ->
      if warmup_ms > 0.0 then Vm.run_measured vm ~warmup_ms ~ms else Vm.run vm ~ms);
  let tot = Server.totals srv in
  print_string (Server_report.text scfg ~ran_ms:ms tot);
  Flags.output "trace" (Vm.write_trace vm) trace_out;
  Flags.output "per-cycle metrics" (Vm.write_metrics vm) metrics_out;
  Flags.output "server report"
    (Flags.json_file (Server_report.to_json scfg ~ran_ms:ms tot))
    json_out;
  if Server.slo_breached srv then begin
    Printf.eprintf "cgcsim: SLO breach — %.1f ms attainment %.4f below target %.4f\n"
      s.Flags.slo_ms (Server.slo_attainment tot) s.Flags.slo_target;
    exit Exit_codes.slo
  end

(* ------------------------------------------------------------------ *)
(* cgcsim cluster — N shard VMs behind a front-end load balancer.

   The balancer draws the fleet arrival stream once, routes every
   arrival (round-robin, least-queue-depth or consistent-hash) through
   the epoch router, and each shard incarnation — a complete VM +
   collector + server — replays its slice on the persistent domain pool
   (--jobs).  Prints the fleet SLO report and optionally writes it as
   cgcsim-cluster-v3 JSON, plus the merged fleet timeline
   (--timeline-out) as Chrome counter tracks.

     cgcsim cluster --shards 8 --policy lqd --rate 24000 --slo-ms 50 \
       --ms 3000 --jobs 8 --chaos shard-restart --json fleet.json

   Exit code 6: an SLO was configured and *fleet* attainment fell below
   --slo-target.  Exit code 7: the fleet degradation ladder bottomed
   out (--give-up unroutable requests under --chaos).  Per-shard traces
   (--trace-out PREFIX) are written as PREFIX.shard<K>.json, restarted
   incarnations as PREFIX.shard<K>.r<I>.json, each independently
   loadable in Perfetto. *)

module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Shard = Cgc_cluster.Shard

let cluster_cmd =
  command "cluster"
    ~doc:
      "Run N shard VMs behind a front-end load balancer on the persistent \
       domain pool and print the fleet SLO report."
  @@
  let+ { Flags.gc; heap_mb; ncpus; ms; seed } =
    Flags.vm ~fleet:true ~heap_mb:24.0 ~ms:2000.0 ()
  and+ s = Flags.server ~fleet:true ~rate:16000.0 ()
  and+ shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard VM count.")
  and+ policy =
    let doc =
      "Routing policy: round-robin (rr), least-queue (lqd) or \
       consistent-hash (hash)."
    in
    let policy =
      Flags.named ~kind:"policy" ~known:"round-robin|least-queue|consistent-hash"
        Balancer.policy_of_name Balancer.policy_name
    in
    Arg.(value & opt policy Balancer.Round_robin & info [ "policy" ] ~doc)
  and+ service_est_ms =
    let doc =
      "The balancer's mean-service-time estimate (ms), parameterising the \
       least-queue fluid model."
    in
    Arg.(value & opt float 0.12 & info [ "service-est-ms" ] ~doc)
  and+ bin_ms =
    let doc = "Fleet-phenomena timeline bin width (ms)." in
    Arg.(value & opt float 10.0 & info [ "bin-ms" ] ~doc)
  and+ jobs =
    Flags.jobs
      ~doc:
        "Run shards on $(docv) OCaml domains.  Host-side parallelism only: \
         per-shard traces and the fleet report are byte-identical at every \
         job count."
  and+ chaos =
    let doc =
      Printf.sprintf
        "Arm one deterministic fleet chaos scenario (seeded by \
         $(b,--chaos-seed)): %s."
        (String.concat "; "
           (List.map
              (fun sc ->
                Printf.sprintf "$(b,%s) (%s)" (Cluster_fault.to_name sc)
                  (Cluster_fault.describe sc))
              Cluster_fault.all))
    in
    let scenario =
      Flags.named ~kind:"chaos scenario"
        ~known:(String.concat ", " (List.map Cluster_fault.to_name Cluster_fault.all))
        Cluster_fault.of_name Cluster_fault.to_name
    in
    Arg.(value & opt (some scenario) None & info [ "chaos" ] ~docv:"SCENARIO" ~doc)
  and+ chaos_seed =
    let doc = "Seed for the chaos plan (default: the fleet seed)." in
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~doc)
  and+ epoch_ms =
    let doc =
      "Balancer liveness re-read interval in ms (default: one $(b,--bin-ms) \
       timeline bin)."
    in
    Arg.(value & opt (some float) None & info [ "epoch-ms" ] ~doc)
  and+ retries =
    let doc = "Per-request retry budget when a target shard is dark." in
    Arg.(value & opt int 3 & info [ "retries" ] ~doc)
  and+ retry_base_ms =
    let doc = "First retry backoff in ms; doubles per attempt." in
    Arg.(value & opt float 0.25 & info [ "retry-base-ms" ] ~doc)
  and+ hedge =
    let doc =
      "Hedge to a shard whose modelled queue depth undercuts the primary's \
       by at least $(docv) requests; 0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "hedge" ] ~docv:"MARGIN" ~doc)
  and+ fleet_throttle =
    let doc =
      "Arm the fleet-wide admission throttle at or below this \
       balancer-visible live fraction."
    in
    Arg.(value & opt float 0.5 & info [ "fleet-throttle" ] ~docv:"FRAC" ~doc)
  and+ give_up =
    let doc =
      "Unroutable requests tolerated before the typed $(b,Fleet_unavailable) \
       failure (exit code 7)."
    in
    Arg.(value & opt int 100 & info [ "give-up" ] ~docv:"N" ~doc)
  and+ { Flags.out = trace_out; ring = trace_ring } =
    let doc =
      "Write one Chrome trace-event JSON file per shard, named \
       $(docv).shard<K>.json (arms every shard's event sink)."
    in
    Flags.trace ~docv:"PREFIX" ~doc ~ring:(1 lsl 17) ()
  and+ json_out = Flags.json ~doc:"Write the $(b,cgcsim-cluster-v3) fleet report to $(docv)."
  and+ timeline_out =
    let doc =
      "Write the merged fleet timeline (per-epoch liveness, per-bin \
       placement accounting and availability, per-shard stopped time / \
       queue depth / sheds) as $(b,cgcsim-timeline-v1) Chrome counter \
       tracks to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "timeline-out" ] ~docv:"FILE" ~doc)
  in
  Cgc_cluster.Dpool.set_size jobs;
  let throttle_hi, throttle_lo = s.Flags.throttle in
  let ccfg =
    build (fun () ->
        Cluster.cfg ~shards ~policy ~arrival:s.Flags.arrival ~queue_cap:s.Flags.queue
          ~workers:s.Flags.workers ~timeout_ms:s.Flags.timeout_ms
          ~slo_ms:s.Flags.slo_ms ~slo_target:s.Flags.slo_target ~throttle_hi
          ~throttle_lo ~service_est_ms ~bin_ms ~gc ~heap_mb ~ncpus ~seed ~ms
          ~trace:(trace_out <> None) ~trace_ring ?chaos
          ~chaos_seed:(Option.value chaos_seed ~default:seed)
          ?epoch_ms ~retries ~retry_base_ms ~hedge_margin:hedge
          ~fleet_throttle_frac:fleet_throttle ~give_up ~rate_per_s:s.Flags.rate ())
  in
  let result = catching_failures (fun () -> Cluster.run ccfg) in
  print_string (Cgc_cluster.Report.text result);
  Option.iter
    (fun prefix ->
      Array.iter
        (fun (sh : Shard.result) ->
          (* Incarnation 0 keeps the historical name, so chaos-free
             campaigns produce the same files as before. *)
          let file =
            if sh.Shard.incarnation = 0 then
              Printf.sprintf "%s.shard%d.json" prefix sh.Shard.id
            else Printf.sprintf "%s.shard%d.r%d.json" prefix sh.Shard.id sh.Shard.incarnation
          in
          Option.iter
            (fun trace ->
              Flags.output
                (Printf.sprintf "shard %d trace" sh.Shard.id)
                (fun f -> Export.write_file f trace)
                (Some file))
            sh.Shard.trace)
        result.Cluster.shards)
    trace_out;
  Flags.output "cluster report"
    (Flags.json_file (Cgc_cluster.Report.to_json result))
    json_out;
  Flags.output "fleet timeline"
    (fun f -> Export.write_file f (Cgc_cluster.Timeline.chrome_json result))
    timeline_out;
  if Cluster.slo_breached result then begin
    Printf.eprintf
      "cgcsim: fleet SLO breach — %.1f ms attainment %.4f below target %.4f\n"
      s.Flags.slo_ms (Cluster.slo_attainment result) s.Flags.slo_target;
    exit Exit_codes.slo
  end

let exit_codes_cmd =
  command "exit-codes"
    ~doc:
      "Print the process exit-code table (the single source of truth the \
       README and the binary both use)."
  @@
  let+ markdown =
    let doc =
      "Print the GitHub-flavoured markdown table — the literal source of \
       the README's exit-code block."
    in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  print_string (if markdown then Exit_codes.markdown_table () else Exit_codes.text ())

let experiment_cmd =
  command "experiment" ~doc:"Run a paper-reproduction experiment."
  @@
  let+ which =
    let doc =
      "Experiment: fig1, fig2, table1, table2, table3, table4, javac, \
       packetmem, serverlat, genlat, clusterlat, clusterchaos."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  and+ metrics_out =
    Flags.metrics_out
      ~doc:
        "Write every per-run metrics record the experiment measured to \
         $(docv) as CSV."
      ()
  and+ jobs =
    Flags.jobs
      ~doc:
        "Run the experiment's independent simulations on $(docv) OCaml \
         domains.  Host-side parallelism only: results (tables, metrics \
         CSV) are identical at every job count."
  in
  let module E = Cgc_experiments in
  E.Common.set_jobs jobs;
  E.Common.reset_recorded ();
  (match which with
  | "fig1" -> ignore (E.Fig1_specjbb.run ())
  | "fig2" -> ignore (E.Fig2_pbob.run ())
  | "table1" | "table2" | "table3" -> ignore (E.Tables123.run ())
  | "table4" -> ignore (E.Table4_load_balance.run ())
  | "javac" -> ignore (E.Javac_exp.run ())
  | "packetmem" -> ignore (E.Packet_memory.run ())
  | "serverlat" -> ignore (E.Server_latency.run ())
  | "genlat" -> ignore (E.Genlat.run ())
  | "clusterlat" -> ignore (E.Clusterlat.run ())
  | "clusterchaos" -> ignore (E.Clusterchaos.run ())
  | n -> Flags.die "unknown experiment %s" n);
  Flags.output "metrics"
    ~note:(Printf.sprintf " (%d runs)" (List.length (E.Common.recorded ())))
    E.Common.write_metrics_csv metrics_out

let () =
  let info =
    Cmd.info "cgcsim" ~exits
      ~doc:
        "Simulator of the PLDI 2002 parallel, incremental and mostly \
         concurrent garbage collector."
  in
  let cmd =
    Cmd.group info
      [ run_cmd; serve_cmd; cluster_cmd; analyze_cmd; experiment_cmd; exit_codes_cmd ]
  in
  (* Cmdliner's own statuses (123-125) are not part of the table: a
     rejected command line is a usage error like any other. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> Exit_codes.ok
    | Error (`Parse | `Term) -> Exit_codes.usage
    | Error `Exn -> Cmd.Exit.internal_error)
