(** Trace and metrics serialisation — and the matching re-parsers.

    Two formats, both deterministic (stable event order from
    {!Obs.events}, fixed-precision number formatting, no host clock):

    {ul
    {- {b Chrome [trace_event] JSON} — load the file in
       [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Spans
       become complete (["ph":"X"]) events, instants thread-scoped
       instant (["ph":"i"]) events; the simulated thread id becomes the
       viewer row, and the integer payload is exposed as [args.v].  The
       top-level object carries a [cgcSchema] version tag plus the
       clock rate and ring-drop counters, so [cgcsim analyze] can reject
       incompatible files and warn about truncated history.}
    {- {b CSV} — one row per GC cycle, produced by {!Cgc_core.Gstats};
       this module only provides the generic writer, with an optional
       [#schema=...] first line for the same version-rejection.}}

    The Chrome writer is one per-event formatter over scalar fields with
    two sinks.  {!chrome_json} and {!obs_chrome_json} build the trace in
    memory as one string of exactly its length (a length pass, then a
    fill pass); {!output_obs_chrome} streams it to a channel through a
    small reusable buffer and never holds the whole trace.  The [obs_]
    entry points read a sink's rings directly — the length pass in any
    order, the fill in the k-way merge order of {!Obs.iter_sorted} — so
    no event record is built.

    {!parse_chrome_json} and {!parse_csv} invert the two writers exactly:
    re-exporting a parsed file reproduces it byte for byte (tested), which
    is what lets the profiler analyse previously written traces instead of
    only live runs. *)

val trace_schema : string
(** The schema tag written into (and required from) trace JSON files. *)

type trace_meta = {
  cycles_per_us : float;  (** simulated cycles per exported microsecond *)
  emitted : int;  (** total events emitted by the recording run *)
  dropped : int;  (** events lost to ring overflow before export *)
}

val chrome_json :
  ?emitted:int -> ?dropped:int -> cycles_per_us:float -> Event.t array -> string
(** Serialise (already-ordered) events — the array
    {!Cgc_obs.Obs.events_array}
    returns — converting cycle timestamps to microseconds, the unit the
    trace-event spec mandates, at [cycles_per_us] simulated cycles per
    microsecond.  [emitted] and [dropped] (default 0) are recorded in
    the header so analysis of the file can report how much history the
    rings lost.

    The string is built in one allocation of exactly its length.
    Microsecond fields are printed as [Printf.sprintf "%.3f"] would
    print them, by integer fixed-point arithmetic when [cycles_per_us]
    is a whole number and the value is in [[0, 2^40)] cycles and not an
    exact rounding tie, and by [Printf] otherwise. *)

val obs_chrome_json : cycles_per_us:float -> Obs.t -> string
(** [chrome_json ~emitted ~dropped ~cycles_per_us (Obs.events_array o)]
    with the sink's own counters, byte for byte, written from the rings'
    columns without materialising a record. *)

val output_obs_chrome : cycles_per_us:float -> Obs.t -> out_channel -> unit
(** {!obs_chrome_json} written to a channel as it is formatted: beyond
    the rings' cached orders, it allocates a 16 KiB buffer and a few
    words per ring, whatever the trace's length. *)

val parse_chrome_json : string -> (trace_meta * Event.t list, string) result
(** Strict inverse of {!chrome_json}: recovers the integer cycle
    timestamps (exact for [cycles_per_us < 2000]) and typed codes.
    [Error] carries a human-readable reason — unsupported schema,
    unknown event name, or malformed structure. *)

val csv : ?schema:string -> header:string list -> string list list -> string
(** RFC-4180-enough CSV: comma-separated, ["\n"] line ends, fields
    containing commas or quotes are double-quoted.  [schema] (off by
    default) prepends a [#schema=NAME] line identifying the column
    contract to {!parse_csv}. *)

val parse_csv :
  string -> (string option * string list * string list list, string) result
(** [Ok (schema, header, rows)] — inverse of {!csv}, including quoted
    fields.  [schema] is [None] when the file has no [#schema=] line. *)

val write_file : string -> string -> unit
(** [write_file path contents] — plain [open_out]/[output_string], binary
    mode so the bytes written are exactly the bytes compared by the
    determinism tests. *)
