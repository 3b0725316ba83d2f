(** The one clock every duration reads: [CLOCK_MONOTONIC] in nanoseconds.
    Its origin is arbitrary (boot time on Linux), so only differences
    between two reads mean anything; calendar timestamps keep
    [Unix.gettimeofday]. *)

val now_ns : unit -> int
(** Allocation-free, so it can bracket a single sub-microsecond query. *)

val now : unit -> int64
(** The same reading as [int64]: the [~clock] that {!Trace},
    {!Profile} and {!Telemetry} take. *)
