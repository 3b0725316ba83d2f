(** Periodic time-series snapshots (JSONL) for long runs: counter deltas,
    gauge levels, bounded-histogram summaries, plus optional process facts
    (Gc.quick_stat, current RSS). Cooperative sampling: instrumented loops
    call [if !active then tick ()], so the disabled cost is one load and a
    branch, like {!Probe.on}. Sampling is chunk-free: only the domain that
    called [start] samples, and only while it is outside every
    {!Ron_util.Pool} chunk — so a sample never races with worker-domain
    shard writes and the surviving sample points do not depend on how the
    work was split. The clock is injected like {!Trace}'s — under the
    default logical clock with [process_stats:false], the emitted series
    is bit-identical at every [RON_JOBS]. *)

val active : bool ref
(** Guard for call sites: [if !Telemetry.active then Telemetry.tick ()]. *)

val logical_clock : unit -> int64
(** Deterministic default clock: one tick per read. [start] without
    [?clock] resets it to zero. *)

val start :
  ?clock:(unit -> int64) -> ?interval:int64 -> ?process_stats:bool ->
  ?expo:string ->
  Trace.sink -> unit
(** Begin sampling into [sink] and emit the seq-0 baseline snapshot.
    [interval] is in clock units (default [1L], i.e. every tick under the
    logical clock; the CLI passes milliseconds converted to ns). [?expo]
    names a file to re-render in Prometheus text format ({!Expo.write},
    atomic rename) on every sample, so scrapers track the same cadence.
    Raises [Invalid_argument] if already started or [interval < 1]. *)

val tick : unit -> unit
(** Sample if on the starting domain, outside every pool chunk, and the
    clock has advanced at least one interval since the last snapshot;
    otherwise a no-op (that never reads the clock). *)

val sample : unit -> unit
(** Force a snapshot now (starting domain only, outside pool chunks). *)

val snapshots_emitted : unit -> int

val gauges_json : env:bool -> Json.t
(** Every written gauge by name, in registration order; the env gauges
    (RON_JOBS-dependent by nature) only when [env]. Shared with
    {!Ron_obs.snapshot}, which passes [~env:false]. *)

val bucketed_json : unit -> Json.t
(** Summary (count, min, max, p50, p95, p99) of every non-empty bucketed
    histogram by name, as in a sample's ["hists"] and the snapshot's
    ["bucketed_histograms"]. *)

val stop : unit -> unit
(** Emit a final snapshot, close the sink, and restore the default
    clock. Idempotent. *)
