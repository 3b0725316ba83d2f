(** Reader side of the JSONL trace format: parse {!Trace}'s output back
    into events and validate the stream's structural invariants. Shared by
    [ron_cli check trace] and [ron_cli report trace]. *)

type ph = B | E | I

type event = {
  ts : int;
  dom : int;
  ph : ph;
  name : string;
  args : (string * Json.t) list;  (** [[]] when the event carried no args *)
}

val ph_string : ph -> string

val parse_line : string -> (event, string) result
(** One JSONL line to one event; rejects missing/ill-typed [ts], [dom],
    [ph], [name], or a non-object [args]. *)

val parse_lines : string list -> (event list, string) result
(** Parse every non-blank line, failing with a 1-based line number. *)

val read_file : string -> (event list, string) result

val validate : event list -> (int, string) result
(** Check the whole stream: the ["error"] arg (emitted by {!Trace.span}
    when the wrapped function raises) appears only on ["E"] events and is a
    string, and per domain every ["E"] closes the innermost open ["B"] of
    the same name with nothing left open at the end. Returns the event
    count. *)

(** {2 Telemetry snapshot records}

    Reader side of {!Telemetry}'s JSONL samples, shared by
    [ron_cli check telemetry] and [ron_cli report telemetry]. *)

type snapshot = {
  sts : int;  (** the sample's clock reading ([ts] in the record) *)
  seq : int;
  counters : (string * Json.t) list;
  gauges : (string * Json.t) list;
  hists : (string * Json.t) list;
  gc : (string * Json.t) list option;
  rss_kb : int option;
}

val parse_snapshot_line : string -> (snapshot, string) result
(** One JSONL line to one snapshot; rejects non-["sample"] kinds and
    missing/ill-typed header fields. Section payloads are kept as raw
    JSON fields for {!validate_snapshots} and report rendering. *)

val parse_snapshot_lines : string list -> (snapshot list, string) result
val read_snapshot_file : string -> (snapshot list, string) result

val validate_snapshots : snapshot list -> (int, string) result
(** Check a whole series: [seq] counts 0,1,2,… with no gaps, [ts] never
    goes backwards, counter deltas are integers, gauges and gc fields are
    numbers, histogram summaries carry [count >= 1] plus numeric
    min/max/p50/p95/p99, and [rss_kb] is non-negative when present.
    Returns the sample count. *)
