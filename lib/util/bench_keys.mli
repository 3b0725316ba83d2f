(** Shared direction classification for bench-JSON numeric keys.

    [ron_cli diff] (and anything else gating on bench output) uses this to
    decide how a relative threshold applies: {!Timing} keys are
    lower-is-better, {!Throughput} keys are higher-is-better, and
    {!Deterministic} keys must match exactly. *)

type direction =
  | Throughput  (** ["qps"], [*_qps], [*_per_s] — higher is better. *)
  | Timing
      (** [*_s], or containing ["_ns"] or ["burn_rate"] (SLO error-budget
          burn) — lower is better. *)
  | Deterministic  (** everything else — compare exactly. *)

val classify : string -> direction
(** [classify key] decides the direction for a numeric bench key. The
    throughput rule wins over the timing rule (["_per_s"] ends in ["_s"]). *)

type outcome =
  | Same  (** within threshold (or exactly equal, including equal infinities) *)
  | Better  (** beyond threshold in the good direction *)
  | Worse  (** beyond threshold in the bad direction — a regression *)
  | Changed
      (** a deterministic value changed, or a value is non-finite / has a
          zero baseline that admits no relative comparison — a mismatch *)

val verdict :
  direction ->
  threshold:float ->
  det_threshold:float ->
  base:float ->
  next:float ->
  outcome * float option
(** [verdict dir ~threshold ~det_threshold ~base ~next] judges one numeric
    bench key; the second component is the relative change when it is
    well-defined (finite values, nonzero baseline).

    Two edge classes are decided explicitly rather than through float
    comparisons that would silently pass:
    - a non-finite value on either side (nan ratios compare false against
      every threshold) is {!Changed};
    - a zero baseline with a nonzero candidate has no relative scale, so
      the key's direction decides — nonzero time appearing is {!Worse},
      throughput appearing is {!Better}, a deterministic change is
      {!Changed}. *)
