(** The observability and [--jobs] flags shared by every [ron_cli]
    subcommand and by [bench/main.exe]. A flag error is a user error: the
    message, naming the flag, goes to stderr and the exit code is 2. *)

val ns_clock : unit -> int64
(** Wall-clock nanoseconds: the one clock handed to the trace sink, the
    phase profiler and the telemetry sampler. *)

type telemetry = { file : string option; interval_ms : int }

type t = {
  trace : string option;
  metrics : string option;
  profile : string option;
  telemetry : telemetry;
  expo : string option;
  jobs : int option;
}

val file_arg : string -> string -> string option Cmdliner.Term.t
(** [file_arg name doc] is an optional [--name FILE] flag. *)

val telemetry_term : telemetry Cmdliner.Term.t
(** [--telemetry FILE] and [--telemetry-interval MS]. *)

val term : t Cmdliner.Term.t
(** [--trace], [--metrics-out], [--profile], the telemetry pair, [--expo]
    and [-j/--jobs]. *)

val check_writable : string -> string option -> (unit, string) result
(** [check_writable flag path] fails, naming [flag], when [path] cannot
    be opened for writing. It leaves the file system as it found it. *)

val check_telemetry : telemetry -> (unit, string) result
(** The interval is at least 1 ms and the file is writable. *)

val start_telemetry : ?expo:string -> telemetry -> unit
(** Start the sampler when a file is given (the caller turns the probes
    on). *)

val with_obs : t -> (unit -> int) -> int
(** Check every flag and every output path (exit 2 on the first error,
    before [f] runs), set the job count, start the configured sinks, run
    [f], then write the snapshot, exposition and profile and close the
    sinks — also when [f] raises. *)
