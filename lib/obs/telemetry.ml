(* Periodic time-series snapshots for long runs: counter deltas, gauge
   levels, bounded-histogram summaries, and (optionally) process facts —
   Gc.quick_stat and current RSS — as one JSONL record per sample.

   The sampler is cooperative, not a thread: instrumented loops call

     if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ()

   so the disabled cost is one global load and a fall-through branch, the
   same contract as [Probe.on]. A tick samples only when (a) it runs on
   the domain that called [start] and outside any Pool chunk — in-chunk
   ticks return before touching the clock, so the series never depends on
   how Pool split the work and a sample never races with worker-domain
   shard writes — and (b) the injected clock has advanced past the
   sampling interval since the last emission.

   The clock is injected like [Trace]'s: the default is a logical atomic
   tick (reset to zero by [start] so repeated runs in one process emit
   identical timestamps), and the CLI injects wall-clock nanoseconds.
   Under the logical clock with [process_stats:false] the whole series is
   bit-identical at every RON_JOBS — deterministic counters and non-env
   gauges only; [process_stats:true] adds the inherently nondeterministic
   fields (GC, RSS, env gauges such as effective worker count and
   per-domain cache occupancy). *)

let active = ref false

let logical = Atomic.make 0
let logical_clock () = Int64.of_int (Atomic.fetch_and_add logical 1)

type state = {
  mutable sink : Trace.sink;
  mutable clock : unit -> int64;
  mutable interval : int64;
  mutable last : int64;
  mutable seq : int;
  mutable owner : int;
  mutable process_stats : bool;
  mutable expo : string option; (* Prometheus exposition target, refreshed per sample *)
  prev : (string, int) Hashtbl.t; (* counter name -> value at last sample *)
}

let state =
  {
    sink = Trace.null_sink;
    clock = logical_clock;
    interval = 1L;
    last = 0L;
    seq = 0;
    owner = -1;
    process_stats = true;
    expo = None;
    prev = Hashtbl.create 64;
  }

let counters_delta_json () =
  let fields =
    List.filter_map
      (fun c ->
        let name = Counter.name c in
        let v = Counter.value c in
        let p = match Hashtbl.find_opt state.prev name with Some p -> p | None -> 0 in
        Hashtbl.replace state.prev name v;
        if v = p then None else Some (name, Json.Int (v - p)))
      (Counter.all ())
  in
  Json.Obj fields

let gauges_json ~env =
  Json.Obj
    (List.filter_map
       (fun g ->
         if Gauge.written g && (env || not (Gauge.env g)) then
           Some (Gauge.name g, Json.Float (Gauge.value g))
         else None)
       (Gauge.all ()))

let bucketed_json () =
  Json.Obj
    (List.filter_map
       (fun h ->
         let s = Histogram.Bucketed.summary h in
         if s.Histogram.Bucketed.count = 0 then None
         else
           Some
             ( Histogram.Bucketed.name h,
               Json.Obj
                 [
                   ("count", Json.Int s.Histogram.Bucketed.count);
                   ("min", Json.Float s.Histogram.Bucketed.min);
                   ("max", Json.Float s.Histogram.Bucketed.max);
                   ("p50", Json.Float s.Histogram.Bucketed.p50);
                   ("p95", Json.Float s.Histogram.Bucketed.p95);
                   ("p99", Json.Float s.Histogram.Bucketed.p99);
                 ] ))
       (Histogram.Bucketed.all ()))

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", Json.Float s.Gc.minor_words);
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
      ("heap_words", Json.Int s.Gc.heap_words);
    ]

let emit ts =
  let base =
    [
      ("kind", Json.String "sample");
      ("ts", Json.Int (Int64.to_int ts));
      ("seq", Json.Int state.seq);
      ("counters", counters_delta_json ());
      ("gauges", gauges_json ~env:state.process_stats);
      ("hists", bucketed_json ());
    ]
  in
  let fields =
    if not state.process_stats then base
    else
      base
      @ [ ("gc", gc_json ()) ]
      @ (match Rss.current_kb () with
        | Some kb -> [ ("rss_kb", Json.Int kb) ]
        | None -> [])
  in
  state.sink.write (Json.to_line (Json.Obj fields));
  (* Refresh the Prometheus exposition on the same cadence: the atomic
     rename means a scraper racing the rewrite still reads a complete
     file. Emitting happens outside every Pool chunk (see [may_sample]),
     so the registry merges here cannot race worker shards either. *)
  (match state.expo with Some file -> Expo.write file | None -> ());
  state.seq <- state.seq + 1;
  state.last <- ts

let start ?clock ?(interval = 1L) ?(process_stats = true) ?expo sink =
  if !active then invalid_arg "Telemetry.start: already started";
  if Int64.compare interval 1L < 0 then
    invalid_arg "Telemetry.start: interval must be >= 1";
  state.expo <- expo;
  (match clock with
  | Some c -> state.clock <- c
  | None ->
    (* Restart logical time so every default-clock run emits the same
       timestamps — the cross-RON_JOBS bit-identity contract. *)
    Atomic.set logical 0;
    state.clock <- logical_clock);
  state.sink <- sink;
  state.interval <- interval;
  state.seq <- 0;
  state.owner <- (Domain.self () :> int);
  state.process_stats <- process_stats;
  Hashtbl.reset state.prev;
  (* Deltas are measured from [start]: prime each counter's baseline with
     its standing total, so activity before start never shows as a delta
     when the sampler attaches to a warm process. *)
  List.iter
    (fun c -> Hashtbl.replace state.prev (Counter.name c) (Counter.value c))
    (Counter.all ());
  active := true;
  (* Baseline sample: seq 0 with all-zero deltas, so even short runs have
     a series. *)
  emit (state.clock ())

(* Sampling is chunk-free: only the owner domain, and only while it is
   not executing a Pool chunk. The check runs BEFORE the clock read, so
   skipped ticks advance nothing — the clock-read sequence at the
   surviving sample points is independent of RON_JOBS, which is what
   makes the logical-clock series bit-identical across job counts. It is
   also what makes a sample safe: outside every chunk, no worker domain
   exists, so merging counter/gauge/histogram shards cannot race with
   concurrent writes. *)
let may_sample () =
  (Domain.self () :> int) = state.owner && not (Ron_util.Pool.inside_chunk ())

let sample () = if !active && may_sample () then emit (state.clock ())

let tick () =
  if !active && may_sample () then begin
    let now = state.clock () in
    if Int64.compare (Int64.sub now state.last) state.interval >= 0 then emit now
  end

let snapshots_emitted () = state.seq

let stop () =
  if !active then begin
    (* Final sample before closing so the series always covers run end. *)
    if (Domain.self () :> int) = state.owner then emit (state.clock ());
    let s = state.sink in
    state.sink <- Trace.null_sink;
    state.clock <- logical_clock;
    state.owner <- -1;
    state.expo <- None;
    Hashtbl.reset state.prev;
    active := false;
    s.close ()
  end
