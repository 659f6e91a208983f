(* The cgcsim flag vocabulary: every flag two subcommands share is
   defined here once, in the groups the simulator is configured by.

   - [vm]: the collector and the simulated machine (--gc, --heap-mb,
     --ncpus, --ms, --tracing-rate, --seed) together with the fault flags
     (--inject, --fault-seed, --verify), yielding a validated [Config.t]
     and the [Vm.config] arguments;
   - [server]: the open-loop front end that serve and cluster share;
   - [trace], [metrics_out], [json]: the observability outputs, written
     through [output];
   - [jobs]: host domains.

   Subcommands pass in their own defaults and doc strings.  A bad value
   is rejected by a converter below or by [Config.validate], so it
   surfaces as a cmdliner error naming the flag, which cgcsim maps to
   exit code 1 (usage) — never as an uncaught exception. *)

open Cmdliner
open Term.Syntax
module Config = Cgc_core.Config
module Fault = Cgc_fault.Fault
module Arrival = Cgc_server.Arrival
module Exit_codes = Cgc_cli.Exit_codes

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "cgcsim: %s\n" msg;
      exit Exit_codes.usage)
    fmt

(* Write [file] with [write], or exit 1 saying what could not be written;
   then announce it on stdout. *)
let output ?(note = "") what write = function
  | None -> ()
  | Some file ->
      (try write file with Sys_error msg -> die "cannot write %s: %s" what msg);
      Printf.printf "%s written to %s%s\n" what file note

let json_file json file =
  Cgc_obs.Export.write_file file (Cgc_prof.Json.to_string ~pretty:true json)

(* ------------------------------------------------------------------ *)
(* Converters                                                          *)

(* [base] narrowed to the values [ok] accepts. *)
let checked ~expected ok base =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Arg.conv_printer base)

let int_at_least lo =
  checked ~expected:(Printf.sprintf "an integer >= %d" lo) (fun v -> v >= lo) Arg.int

(* Smaller heaps cannot hold a card plus a gen-mode nursery. *)
let min_heap_mb = 0.01

let heap_size =
  checked
    ~expected:(Printf.sprintf "a size of at least %g MB" min_heap_mb)
    (fun v -> Float.is_finite v && v >= min_heap_mb)
    Arg.float

(* A name looked up with [of_name] and printed with [to_name]. *)
let named ~kind ~known of_name to_name =
  let parse s =
    Option.to_result
      ~none:(Printf.sprintf "unknown %s %S (%s)" kind s known)
      (of_name (String.trim s))
  in
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (to_name v))

let collector =
  named ~kind:"collector" ~known:"cgc|gen|stw" Config.mode_of_name
    Config.mode_name

let scenarios =
  let one =
    named ~kind:"fault scenario"
      ~known:(String.concat ", " (List.map Fault.to_name Fault.all) ^ ", or all")
      Fault.of_name Fault.to_name
  in
  let parse s =
    if s = "all" then Ok Fault.all else Arg.conv_parser (Arg.list one) s
  in
  Arg.conv (parse, Arg.conv_printer (Arg.list one))

let burst =
  checked ~expected:"ON_MS,OFF_MS,FACTOR with positive windows and FACTOR >= 1"
    (fun (on_ms, off_ms, factor) -> on_ms > 0.0 && off_ms > 0.0 && factor >= 1.0)
    Arg.(t3 float float float)

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)

let per_shard fleet doc =
  if fleet then "Per-shard " ^ String.uncapitalize_ascii doc else doc

(* The --help scenario listing is generated from the injector itself, so
   a scenario added there shows up here without a second edit. *)
let inject_doc =
  Printf.sprintf
    "Arm the deterministic fault injector with a comma-separated list of \
     scenarios, or $(b,all).  Scenarios: %s."
    (String.concat "; "
       (List.map
          (fun sc ->
            Printf.sprintf "$(b,%s) (%s)" (Fault.to_name sc) (Fault.describe sc))
          Fault.all))

type vm = { gc : Config.t; heap_mb : float; ncpus : int; ms : float; seed : int }

(* [tune] applies subcommand-specific collector options before the
   combination is validated. *)
let vm ?(fleet = false) ?(ms_doc = "Simulated milliseconds to run.")
    ?(tune = Term.const Fun.id) ~heap_mb ~ms () =
  let term =
    let+ mode =
      let doc =
        "Collector: cgc (mostly-concurrent), gen (nursery + minor \
         collections over cgc) or stw (baseline)."
      in
      Arg.(value & opt collector Config.Cgc & info [ "gc"; "collector"; "c" ] ~doc)
    and+ heap_mb =
      let doc = per_shard fleet "Simulated heap size (MB)." in
      Arg.(value & opt heap_size heap_mb & info [ "heap-mb" ] ~doc)
    and+ ncpus =
      let doc = per_shard fleet "Simulated CPUs." in
      Arg.(value & opt (int_at_least 1) 4 & info [ "ncpus" ] ~doc)
    and+ ms = Arg.(value & opt float ms & info [ "ms" ] ~doc:ms_doc)
    and+ k0 =
      Arg.(value & opt float 8.0 & info [ "tracing-rate"; "k0" ] ~doc:"Tracing rate K0.")
    and+ seed =
      let doc =
        if fleet then "Fleet PRNG seed (shard seeds derive from it)."
        else "PRNG seed."
      in
      Arg.(value & opt int 1 & info [ "seed" ] ~doc)
    and+ inject =
      Arg.(value & opt (some scenarios) None & info [ "inject" ] ~docv:"SCENARIOS" ~doc:inject_doc)
    and+ fault_seed =
      let doc =
        Printf.sprintf "Seed for the fault injector%s (default: the %s seed)."
          (if fleet then "s" else "")
          (if fleet then "fleet" else "run")
      in
      Arg.(value & opt (some int) None & info [ "fault-seed" ] ~doc)
    and+ verify =
      let doc =
        Printf.sprintf
          "Run the heap invariant verifier%s at every GC cycle boundary; exit \
           nonzero on the first violation."
          (if fleet then " in every shard" else "")
      in
      Arg.(value & flag & info [ "verify" ] ~doc)
    and+ tune = tune in
    let faults =
      match inject with
      | None -> Fault.disabled
      | Some scenarios ->
          Fault.create ~scenarios ~seed:(Option.value fault_seed ~default:seed) ()
    in
    let gc = tune { Config.default with Config.mode; k0; faults; verify } in
    Result.map (fun () -> { gc; heap_mb; ncpus; ms; seed }) (Config.validate gc)
  in
  Term.term_result' term

type server = {
  rate : float;
  arrival : Arrival.kind;
  queue : int;
  workers : int;
  timeout_ms : float;
  slo_ms : float;
  slo_target : float;
  throttle : int * int;  (** hi, lo; (0, 0) disables *)
}

let server ?(fleet = false) ~rate () =
  let+ rate =
    let doc = "Offered load, requests per simulated second." in
    let doc = if fleet then "Fleet " ^ String.uncapitalize_ascii doc else doc in
    Arg.(value & opt float rate & info [ "rate" ] ~doc)
  and+ arrival =
    let doc = "Arrival process: poisson, constant or bursty." in
    let kinds =
      [
        ("poisson", Arrival.Poisson);
        ("constant", Arrival.Constant);
        ("bursty", Arrival.Bursty { on_ms = 20.0; off_ms = 80.0; factor = 4.0 });
      ]
    in
    Arg.(value & opt (enum kinds) Arrival.Poisson & info [ "arrival" ] ~doc)
  and+ burst =
    let doc =
      "Bursty on/off windows as $(b,ON_MS,OFF_MS,FACTOR) (rate is \
       FACTOR$(b,x) during bursts, reduced between them to preserve the \
       average).  Implies $(b,--arrival bursty)."
    in
    Arg.(value & opt (some burst) None & info [ "burst" ] ~docv:"ON,OFF,X" ~doc)
  and+ queue =
    let doc = per_shard fleet "Request queue bound (drop-newest beyond it)." in
    Arg.(value & opt int 256 & info [ "queue" ] ~doc)
  and+ workers =
    let doc = per_shard fleet "Worker mutator threads." in
    Arg.(value & opt int 4 & info [ "workers" ] ~doc)
  and+ timeout_ms =
    Arg.(value & opt float 0.0 & info [ "timeout-ms" ] ~doc:"Queueing deadline; 0 disables.")
  and+ slo_ms =
    Arg.(value & opt float 0.0 & info [ "slo-ms" ] ~doc:"End-to-end latency SLO; 0 disables.")
  and+ slo_target =
    let doc =
      Printf.sprintf "Required %sSLO attainment fraction." (if fleet then "fleet " else "")
    in
    Arg.(value & opt float 0.999 & info [ "slo-target" ] ~doc)
  and+ throttle =
    let doc =
      per_shard fleet
        "Admission-throttle hysteresis as $(b,HI,LO) queue depths: shed at \
         the door above HI until the backlog drains to LO."
    in
    Arg.(value & opt (some (t2 int int)) None & info [ "throttle" ] ~docv:"HI,LO" ~doc)
  in
  let arrival =
    match burst with
    | Some (on_ms, off_ms, factor) -> Arrival.Bursty { on_ms; off_ms; factor }
    | None -> arrival
  in
  let throttle = Option.value throttle ~default:(0, 0) in
  { rate; arrival; queue; workers; timeout_ms; slo_ms; slo_target; throttle }

type trace = { out : string option; ring : int }

let trace ?(docv = "FILE") ~doc ~ring () =
  let+ out = Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv ~doc)
  and+ ring =
    let doc = "Per-thread event-ring capacity." in
    Arg.(value & opt (int_at_least 1) ring & info [ "trace-ring" ] ~doc)
  in
  { out; ring }

let metrics_out ?(doc = "Write per-GC-cycle metrics to $(docv) as CSV.") () =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let json ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let jobs ~doc =
  Arg.(value & opt (int_at_least 1) 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
