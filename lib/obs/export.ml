let trace_schema = "cgcsim-trace-v1"

let us ~cycles_per_us cycles = float_of_int cycles /. cycles_per_us

type trace_meta = {
  cycles_per_us : float;
  emitted : int;
  dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Chrome-trace writer.

   One per-event formatter ([event_len] / [put_event]) over scalar
   fields, and two sinks for it.  The in-memory sink sums the exact
   output length in a first pass and fills one [Bytes] of that length in
   a second, so the trace is allocated once and never grown or copied;
   the channel sink formats into a small reusable buffer and flushes it
   to an [out_channel], so a file write never holds the trace at all.
   Integers are written digit by digit, and the microsecond fields use
   integer fixed-point arithmetic ([fixed3]) wherever that provably
   equals [%.3f]; only the remaining fields go through [Printf]. *)

(* Decimal digits of [-m], for [m <= 0]: working on the non-positive
   side covers [min_int], whose magnitude has no [int].  [p = 10^d]
   until [d = 19], the most digits an [int] has. *)
let rec digits_neg_from m p d =
  if d = 19 || m > -p then d else digits_neg_from m (p * 10) (d + 1)

let digits_neg m = digits_neg_from m 10 1

let int_len n = if n < 0 then 1 + digits_neg n else digits_neg (-n)

(* The digits of [-m], [m <= 0], right-aligned to end at offset [i].
   Top level rather than local to [put_int]: a local closure over [b]
   would be allocated on every call. *)
let rec put_digits_neg b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits_neg b (m / 10) (i - 1)

(* Write [n] exactly as [string_of_int] does; returns the next offset. *)
let put_int b pos n =
  let m = if n < 0 then n else -n in
  let pos =
    if n < 0 then begin
      Bytes.unsafe_set b pos '-';
      pos + 1
    end
    else pos
  in
  let stop = pos + digits_neg m in
  put_digits_neg b m (stop - 1);
  stop

let put_string b pos s =
  let n = String.length s in
  Bytes.blit_string s 0 b pos n;
  pos + n

(* [cycles / clock] in thousandths, rounded to nearest, or [-1] when
   this cannot be shown to equal [Printf.sprintf "%.3f"] of the float
   quotient.  [clock] is the whole number of cycles per microsecond
   ([0] when the rate is not a whole number).  For [0 <= cycles < 2^40]
   the float quotient is within [2^-13 / clock] of the exact one, while
   a non-tie exact quotient is at least [1 / (2000 * clock)] away from
   the nearest rounding boundary, so both round the same way.  Exact
   ties are left to [Printf], which rounds the float's binary value. *)
let fixed3 ~clock cycles =
  if clock <= 0 || cycles < 0 || cycles >= 1 lsl 40 then -1
  else
    let n = cycles * 1000 in
    let q = n / clock in
    let r2 = 2 * (n - (q * clock)) in
    if r2 < clock then q else if r2 > clock then q + 1 else -1

(* The clock as the formatter needs it: the rate itself for [Printf],
   and its whole-number form for [fixed3]. *)
type clock = { cycles_per_us : float; whole : int }

let clock cycles_per_us =
  let whole =
    if
      Float.is_integer cycles_per_us
      && cycles_per_us >= 1.0 && cycles_per_us < 0x1p40
    then int_of_float cycles_per_us
    else 0
  in
  { cycles_per_us; whole }

let us_printf c cycles =
  Printf.sprintf "%.3f" (us ~cycles_per_us:c.cycles_per_us cycles)

let us_len c cycles =
  let q = fixed3 ~clock:c.whole cycles in
  if q >= 0 then int_len (q / 1000) + 4 else String.length (us_printf c cycles)

let put_us c b pos cycles =
  let q = fixed3 ~clock:c.whole cycles in
  if q < 0 then put_string b pos (us_printf c cycles)
  else begin
    let pos = put_int b pos (q / 1000) in
    let f = q mod 1000 in
    Bytes.unsafe_set b pos '.';
    Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr (48 + (f / 100)));
    Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr (48 + (f / 10 mod 10)));
    Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr (48 + (f mod 10)));
    pos + 4
  end

let chrome_header ~cycles_per_us ~emitted ~dropped =
  Printf.sprintf
    "{\"displayTimeUnit\":\"ms\",\"cgcSchema\":\"%s\",\"cyclesPerUs\":%.3f,\"emitted\":%d,\"dropped\":%d,\"traceEvents\":["
    trace_schema cycles_per_us emitted dropped

(* Everything an event writes before its first number, per code (by
   [Event.index]): a span continues with its duration, a thread-scoped
   instant with its timestamp. *)
let prefixes ph_tail =
  Array.of_list
    (List.map
       (fun c ->
         "\n{\"name\":\"" ^ Event.name c ^ "\",\"cat\":\"" ^ Event.cat c
         ^ ph_tail)
       Event.all_codes)

let span_prefix = prefixes "\",\"ph\":\"X\",\"dur\":"
let instant_prefix = prefixes "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
let ts_lit = ",\"ts\":"
let tid_lit = ",\"pid\":0,\"tid\":"
let arg_lit = ",\"args\":{\"v\":"
let close_lit = "}}"
let footer = "\n]}\n"

let fixed_len =
  String.length tid_lit + String.length arg_lit + String.length close_lit

(* One event's bytes, without the separating comma.  [code] is the
   code's [Event.index]; a negative [dur] marks an instant. *)
let event_len c ~ts ~dur ~tid ~code ~arg =
  let head =
    if dur < 0 then String.length instant_prefix.(code)
    else
      String.length span_prefix.(code) + us_len c dur + String.length ts_lit
  in
  head + us_len c ts + int_len tid + int_len arg + fixed_len

let put_event c b p ~ts ~dur ~tid ~code ~arg =
  let p =
    if dur < 0 then put_string b p instant_prefix.(code)
    else
      let p = put_us c b (put_string b p span_prefix.(code)) dur in
      put_string b p ts_lit
  in
  let p = put_us c b p ts in
  let p = put_int b (put_string b p tid_lit) tid in
  let p = put_int b (put_string b p arg_lit) arg in
  put_string b p close_lit

(* An upper bound on [event_len] plus its comma: the longest prefix, two
   microsecond fields of at most 314 bytes each ([%.3f] of
   [-.max_float]: sign, 309 digits, point, 3 decimals) and two ints of at
   most 20. *)
let max_event_len =
  let longest = Array.fold_left (fun m s -> max m (String.length s)) 0 in
  1 + longest span_prefix + String.length ts_lit + (2 * 314) + (2 * 20)
  + fixed_len

(* The events of a trace as the writer sees them: [iter] visits them in
   output order, [scan] in any order (enough for the length pass). *)
type events = {
  n : int;
  iter : (ts:int -> dur:int -> tid:int -> code:int -> arg:int -> unit) -> unit;
  scan : (ts:int -> dur:int -> tid:int -> code:int -> arg:int -> unit) -> unit;
}

(* The in-memory sink: the exact length (the [n - 1] separating commas
   counted up front), then one fill. *)
let to_string ~cycles_per_us ~emitted ~dropped evs =
  let c = clock cycles_per_us in
  let header = chrome_header ~cycles_per_us ~emitted ~dropped in
  let len =
    ref (String.length header + String.length footer + max 0 (evs.n - 1))
  in
  evs.scan (fun ~ts ~dur ~tid ~code ~arg ->
      len := !len + event_len c ~ts ~dur ~tid ~code ~arg);
  let b = Bytes.create !len in
  let first = String.length header in
  let pos = ref (put_string b 0 header) in
  evs.iter (fun ~ts ~dur ~tid ~code ~arg ->
      let p = !pos in
      let p =
        if p > first then begin
          Bytes.unsafe_set b p ',';
          p + 1
        end
        else p
      in
      pos := put_event c b p ~ts ~dur ~tid ~code ~arg);
  let stop = put_string b !pos footer in
  assert (stop = !len);
  Bytes.unsafe_to_string b

(* The channel sink: events are formatted into a 16 KiB buffer that is
   flushed whenever the next event might not fit. *)
let to_channel ~cycles_per_us ~emitted ~dropped evs oc =
  let c = clock cycles_per_us in
  output_string oc (chrome_header ~cycles_per_us ~emitted ~dropped);
  let b = Bytes.create 16384 in
  let pos = ref 0 and first = ref true in
  evs.iter (fun ~ts ~dur ~tid ~code ~arg ->
      if !pos + max_event_len > Bytes.length b then begin
        output oc b 0 !pos;
        pos := 0
      end;
      let p = !pos in
      let p =
        if !first then begin
          first := false;
          p
        end
        else begin
          Bytes.unsafe_set b p ',';
          p + 1
        end
      in
      pos := put_event c b p ~ts ~dur ~tid ~code ~arg);
  output oc b 0 !pos;
  output_string oc footer

let of_array (events : Event.t array) =
  let iter f =
    Array.iter
      (fun (e : Event.t) ->
        f ~ts:e.ts ~dur:e.dur ~tid:e.tid ~code:(Event.index e.code) ~arg:e.arg)
      events
  in
  { n = Array.length events; iter; scan = iter }

let of_obs o =
  { n = Obs.length o; iter = Obs.iter_sorted o; scan = Obs.iter_unsorted o }

let chrome_json ?(emitted = 0) ?(dropped = 0) ~cycles_per_us events =
  to_string ~cycles_per_us ~emitted ~dropped (of_array events)

let obs_chrome_json ~cycles_per_us o =
  to_string ~cycles_per_us ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o)
    (of_obs o)

let output_obs_chrome ~cycles_per_us o oc =
  to_channel ~cycles_per_us ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o)
    (of_obs o) oc

(* ------------------------------------------------------------------ *)
(* Chrome-trace re-parser.

   Strict by design: it accepts exactly the shape [chrome_json] writes
   (schema tag included), recovering the integer cycle timestamps from
   the fixed-precision microsecond fields.  Rounding is exact as long as
   [cycles_per_us < 2000]: the %.3f formatting error is at most
   0.0005 us, i.e. under half a cycle.  Anything else is rejected with a
   message rather than mis-parsed. *)

exception Bad of string

let parse_chrome_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let literal l =
    let n = String.length l in
    if !pos + n <= len && String.sub s !pos n = l then pos := !pos + n
    else fail (Printf.sprintf "expected %S" l)
  in
  let peek l =
    let n = String.length l in
    !pos + n <= len && String.sub s !pos n = l
  in
  let until_quote () =
    let start = !pos in
    while !pos < len && s.[!pos] <> '"' do incr pos done;
    if !pos >= len then fail "unterminated string";
    let r = String.sub s start (!pos - start) in
    incr pos;
    r
  in
  let number () =
    let start = !pos in
    while
      !pos < len
      && (match s.[!pos] with '0' .. '9' | '-' | '.' -> true | _ -> false)
    do incr pos done;
    if !pos = start then fail "expected a number";
    String.sub s start (!pos - start)
  in
  let int_field () = int_of_string (number ()) in
  let float_field () = float_of_string (number ()) in
  try
    literal "{\"displayTimeUnit\":\"ms\",\"cgcSchema\":\"";
    let schema = until_quote () in
    if schema <> trace_schema then
      raise
        (Bad
           (Printf.sprintf "unsupported trace schema %S (want %S)" schema
              trace_schema));
    literal ",\"cyclesPerUs\":";
    let cycles_per_us = float_field () in
    if cycles_per_us <= 0.0 || cycles_per_us >= 2000.0 then
      raise (Bad "cyclesPerUs out of the exactly-invertible range");
    literal ",\"emitted\":";
    let emitted = int_field () in
    literal ",\"dropped\":";
    let dropped = int_field () in
    literal ",\"traceEvents\":[";
    let cycles f = int_of_float (Float.round (f *. cycles_per_us)) in
    let events = ref [] in
    let first = ref true in
    while not (peek "\n]}\n") do
      if !first then first := false else literal ",";
      literal "\n{\"name\":\"";
      let name = until_quote () in
      let code =
        match Event.of_name name with
        | Some c -> c
        | None -> raise (Bad (Printf.sprintf "unknown event name %S" name))
      in
      (* [until_quote] consumed the string's closing quote, so the next
         literal starts at the comma. *)
      literal ",\"cat\":\"";
      let _cat = until_quote () in
      let dur =
        if peek ",\"ph\":\"i\",\"s\":\"t\"" then begin
          literal ",\"ph\":\"i\",\"s\":\"t\"";
          -1
        end
        else begin
          literal ",\"ph\":\"X\",\"dur\":";
          cycles (float_field ())
        end
      in
      literal ",\"ts\":";
      let ts = cycles (float_field ()) in
      literal ",\"pid\":0,\"tid\":";
      let tid = int_field () in
      literal ",\"args\":{\"v\":";
      let arg = int_field () in
      literal "}}";
      events := { Event.ts; dur; tid; code; arg } :: !events
    done;
    literal "\n]}\n";
    if !pos <> len then fail "trailing bytes after the trace";
    Ok ({ cycles_per_us; emitted; dropped }, List.rev !events)
  with
  | Bad msg -> Error msg
  | Failure _ -> Error (Printf.sprintf "malformed number at byte %d" !pos)

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then begin
    let b = Buffer.create (String.length f + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      f;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else f

let csv ?schema ~header rows =
  let b = Buffer.create 4096 in
  (match schema with
  | Some s -> Buffer.add_string b (Printf.sprintf "#schema=%s\n" s)
  | None -> ());
  let row r = Buffer.add_string b (String.concat "," (List.map csv_field r)) in
  row header;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      row r;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let parse_csv s =
  let len = String.length s in
  let pos = ref 0 in
  let schema =
    if len > 8 && String.sub s 0 8 = "#schema=" then begin
      let eol = try String.index s '\n' with Not_found -> len in
      pos := min len (eol + 1);
      Some (String.sub s 8 (eol - 8))
    end
    else None
  in
  (* RFC-4180-enough: fields separated by commas, rows by '\n', quoted
     fields may contain commas, quotes ("" escapes) and newlines. *)
  let rows = ref [] and row = ref [] and field = Buffer.create 64 in
  let flush_field () =
    row := Buffer.contents field :: !row;
    Buffer.clear field
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let error = ref None in
  (try
     while !pos < len do
       match s.[!pos] with
       | '"' ->
           if Buffer.length field > 0 then failwith "quote inside bare field";
           incr pos;
           let closed = ref false in
           while not !closed do
             if !pos >= len then failwith "unterminated quoted field";
             (match s.[!pos] with
             | '"' ->
                 if !pos + 1 < len && s.[!pos + 1] = '"' then begin
                   Buffer.add_char field '"';
                   incr pos
                 end
                 else closed := true
             | c -> Buffer.add_char field c);
             incr pos
           done
       | ',' ->
           flush_field ();
           incr pos
       | '\n' ->
           flush_row ();
           incr pos
       | c ->
           Buffer.add_char field c;
           incr pos
     done;
     if Buffer.length field > 0 || !row <> [] then failwith "missing final newline"
   with Failure msg -> error := Some msg);
  match !error with
  | Some msg -> Error msg
  | None -> (
      match List.rev !rows with
      | [] -> Error "empty file"
      | header :: rows -> Ok (schema, header, rows))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
