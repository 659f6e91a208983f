(* A web-application-server scenario — the workload the paper's
   introduction motivates: an open-loop stream of requests served by
   handler threads over a resident session set, with a latency budget
   per request.

   The same request stream ([Cgc_server]: Poisson arrivals into a
   bounded queue, worker mutators, per-request blame) runs under the
   stop-the-world baseline and under the mostly-concurrent collector.
   With STW every request queued behind a collection absorbs the whole
   pause; with CGC the pause, and therefore the tail, collapses.

   Run with:  dune exec examples/webserver.exe *)

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Server = Cgc_server.Server
module Report = Cgc_server.Report

let warmup_ms = 500.0
let ms = 2000.0

let serve name gc =
  let vm = Vm.create (Vm.config ~heap_mb:24.0 ~ncpus:4 ~gc ()) in
  let scfg = Server.cfg ~rate_per_s:6000.0 ~workers:8 ~slo_ms:20.0 () in
  let srv = Server.create scfg vm in
  Vm.run_measured vm ~warmup_ms ~ms;
  Printf.printf "--- %s ---\n%s\n" name
    (Report.text scfg ~ran_ms:ms (Server.totals srv))

let () =
  Printf.printf
    "Web application server: 6000 req/s into 8 handler threads on 4 CPUs,\n\
     24 MB heap, 20 ms SLO.  Request latency under each collector:\n\n";
  serve "STW" Config.stw;
  serve "CGC" Config.default;
  print_string
    "Under STW, requests queue behind whole collection pauses (and some\n\
     are shed); under the mostly-concurrent collector the tail stays flat.\n"
