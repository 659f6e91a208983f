(* Tests for the CLI exit-code single source of truth (Cgc_cli): the
   codes are exactly 0-7 with unique names, and the README's exit-code
   table between the markers is the literal output of markdown_table —
   so the binary, `cgcsim exit-codes --markdown` and the docs can never
   drift apart.  The built cgcsim and bench binaries are then driven
   over a table of bad inputs: each must end in a usage error naming the
   offending flag, never in an uncaught exception, and every cgcsim
   subcommand's --help must document exactly the codes of that table. *)

module Exit_codes = Cgc_cli.Exit_codes

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let test_codes_complete_and_unique () =
  let codes = Exit_codes.all in
  check ci "eight codes" 8 (List.length codes);
  List.iteri
    (fun i (c : Exit_codes.code) ->
      check ci "ascending, dense from zero" i c.Exit_codes.value)
    codes;
  let names = List.map (fun c -> c.Exit_codes.name) codes in
  check ci "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (c : Exit_codes.code) ->
      check cb
        (Printf.sprintf "code %d has a meaning" c.Exit_codes.value)
        true
        (String.length c.Exit_codes.meaning > 0))
    codes

let test_constants_match_table () =
  let value name =
    (List.find (fun c -> c.Exit_codes.name = name) Exit_codes.all)
      .Exit_codes.value
  in
  check ci "ok" Exit_codes.ok (value "ok");
  check ci "usage" Exit_codes.usage (value "usage");
  check ci "oom" Exit_codes.oom (value "oom");
  check ci "invariant" Exit_codes.invariant (value "invariant");
  check ci "schema" Exit_codes.schema (value "schema");
  check ci "drops" Exit_codes.drops (value "drops");
  check ci "slo" Exit_codes.slo (value "slo");
  check ci "fleet" Exit_codes.fleet (value "fleet-unavailable")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_readme_table_in_sync () =
  (* The README block between the markers must be byte-identical to the
     generated table (regenerate with
     `cgcsim exit-codes --markdown`). *)
  (* Under `dune runtest` the README is a declared dep at ../README.md;
     under `dune exec` from the repo root it is in the cwd. *)
  let readme =
    match List.find_opt Sys.file_exists [ "../README.md"; "README.md" ] with
    | Some path -> read_file path
    | None -> Alcotest.fail "README.md not found"
  in
  let begin_marker = "<!-- exit-codes:begin -->\n" in
  let end_marker = "<!-- exit-codes:end -->" in
  let find needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      if i + nl > hl then None
      else if String.sub hay i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  match (find begin_marker readme, find end_marker readme) with
  | Some b, Some e when b < e ->
      let start = b + String.length begin_marker in
      let block = String.sub readme start (e - start) in
      check Alcotest.string "README table matches Exit_codes.markdown_table"
        (Exit_codes.markdown_table ())
        block
  | _ -> Alcotest.fail "README.md is missing the exit-codes markers"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_markdown_rows () =
  let table = Exit_codes.markdown_table () in
  List.iter
    (fun (c : Exit_codes.code) ->
      let cell = Printf.sprintf "| %d | `%s` |" c.Exit_codes.value
          c.Exit_codes.name in
      check cb (Printf.sprintf "table has a row for %s" c.Exit_codes.name)
        true (contains table cell))
    Exit_codes.all

(* Under `dune runtest` a binary is a declared dep at ../<dir>/<exe>;
   under `dune exec` from the repo root it is in the build tree. *)
let built rel =
  lazy
    (match
       List.find_opt Sys.file_exists [ "../" ^ rel; "_build/default/" ^ rel ]
     with
    | Some path -> path
    | None -> Alcotest.failf "%s not found" rel)

let cgcsim = built "bin/cgcsim.exe"
let bench = built "bench/main.exe"

(* Run [exe] (default cgcsim) with [args]; the exit code, stdout and
   stderr. *)
let cgcsim_run ?(exe = cgcsim) args =
  let out = Filename.temp_file "cgcsim" ".out" in
  let err = Filename.temp_file "cgcsim" ".err" in
  let code =
    Sys.command
      (Filename.quote_command (Lazy.force exe) args ~stdout:out ~stderr:err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* Each row: the binary, the command line and the flag its error
   message must name. *)
let bad_inputs () =
  let trace = Filename.concat (Filename.get_temp_dir_name ()) "cgcsim-bad.json" in
  List.map (fun (args, flag) -> (cgcsim, args, flag))
    [
      ([ "serve"; "--heap-mb"; "0" ], "--heap-mb");
      ([ "run"; "--heap-mb"; "0" ], "--heap-mb");
      ([ "cluster"; "--heap-mb"; "0" ], "--heap-mb");
      ([ "run"; "--ncpus"; "0" ], "--ncpus");
      ([ "cluster"; "--ncpus"; "0" ], "--ncpus");
      ([ "serve"; "--trace-ring"; "0"; "--trace-out"; trace ], "--trace-ring");
      ([ "run"; "--packets"; "1" ], "--packets");
      ([ "run"; "--compaction"; "--lazy-sweep" ], "--lazy-sweep");
      ([ "run"; "--gc"; "gen"; "--compaction" ], "--compaction");
      ([ "run"; "--workload"; "pbob"; "--warehouses"; "500" ], "--warehouses");
      ([ "serve"; "--burst"; "0,0,0" ], "--burst");
      ([ "serve"; "--rate"; "-1" ], "-1");
      ([ "cluster"; "--jobs"; "0" ], "--jobs");
      ([ "analyze"; "--workload"; "specjbb" ], "--workload");
    ]
  @ [ (bench, [ "matrix"; "--jobs"; "0" ], "--jobs") ]

let test_bad_inputs_exit_usage () =
  List.iter
    (fun (exe, args, flag) ->
      let cmd = String.concat " " args in
      let code, _, stderr = cgcsim_run ~exe args in
      check cb
        (Printf.sprintf "%s: exit %d is in the table" cmd code)
        true
        (List.exists (fun c -> c.Exit_codes.value = code) Exit_codes.all);
      check ci (cmd ^ ": usage error") Exit_codes.usage code;
      check cb (cmd ^ ": no uncaught exception") false
        (contains stderr "uncaught exception");
      check cb (Printf.sprintf "%s: message names %s" cmd flag) true
        (contains stderr flag))
    (bad_inputs ())

(* The numbered entries of the EXIT STATUS section of --help=plain. *)
let documented_exits help =
  let lines = String.split_on_char '\n' help in
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = "EXIT STATUS" then rest else skip rest
  in
  let rec take acc = function
    | l :: rest when l = "" || l.[0] = ' ' ->
        let acc =
          match String.split_on_char ' ' (String.trim l) with
          | n :: _ -> (
              match int_of_string_opt n with Some v -> v :: acc | None -> acc)
          | [] -> acc
        in
        take acc rest
    | _ -> List.rev acc
  in
  take [] (skip lines)

let test_help_lists_exit_codes () =
  List.iter
    (fun sub ->
      let code, help, _ = cgcsim_run [ sub; "--help=plain" ] in
      check ci (sub ^ " --help exits 0") Exit_codes.ok code;
      check (Alcotest.list ci)
        (sub ^ " --help documents exactly the exit-code table")
        (List.map (fun c -> c.Exit_codes.value) Exit_codes.all)
        (documented_exits help))
    [ "run"; "serve"; "cluster"; "analyze"; "experiment"; "exit-codes" ]

(* The bench harness checks every target name before it runs any: an
   unknown name fails at once, before a matrix cell starts, and --help
   lists the targets. *)
let test_bench_target_names () =
  let code, stdout, stderr = cgcsim_run ~exe:bench [ "matrix"; "nosuch" ] in
  check ci "matrix nosuch: usage error" Exit_codes.usage code;
  check cb "matrix nosuch: message names the target" true
    (contains stderr "nosuch");
  check cb "matrix nosuch: no matrix progress line" false
    (contains stdout "[1/");
  let code, stdout, _ = cgcsim_run ~exe:bench [ "--help" ] in
  check ci "--help exits 0" Exit_codes.ok code;
  check cb "--help lists the targets" true (contains stdout "matrix")

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "complete and unique" `Quick
            test_codes_complete_and_unique;
          Alcotest.test_case "constants match table" `Quick
            test_constants_match_table;
          Alcotest.test_case "markdown rows" `Quick test_markdown_rows;
          Alcotest.test_case "README in sync" `Quick
            test_readme_table_in_sync;
        ] );
      ( "cgcsim",
        [
          Alcotest.test_case "bad inputs exit usage" `Quick
            test_bad_inputs_exit_usage;
          Alcotest.test_case "help lists the exit codes" `Quick
            test_help_lists_exit_codes;
          Alcotest.test_case "bench target names checked first" `Quick
            test_bench_target_names;
        ] );
    ]
