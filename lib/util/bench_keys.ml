(* Shared classification of bench-JSON numeric keys, so every consumer
   (ron_cli diff today, future gates) agrees on which direction is "worse".

   Timing keys (seconds or nanoseconds) regress when they grow; throughput
   keys (queries per second and friends) regress when they shrink; anything
   else numeric is treated as deterministic and must match exactly. The
   throughput check runs first because "_per_s" also ends in "_s". *)

type direction = Throughput | Timing | Deterministic

let has_suffix s suffix = String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let classify key =
  if key = "qps" || has_suffix key "_qps" || has_suffix key "_per_s" then
    Throughput
  else if has_suffix key "_s" || contains key "_ns" || contains key "burn_rate" then
    Timing
  else Deterministic

(* ------------------------------------------------------------- verdicts *)

type outcome = Same | Better | Worse | Changed

(* A baseline this small has no meaningful relative scale: a nonzero
   candidate against it must be judged by direction, not by ratio. *)
let zeroish x = Float.abs x < 1e-300

let verdict dir ~threshold ~det_threshold ~base ~next =
  if base = next then (Same, Some 0.0)
  else if not (Float.is_finite base && Float.is_finite next) then
    (* nan anywhere (or inf vs a finite number) can never silently pass:
       every float comparison with nan is false, so threshold checks on a
       nan ratio would report "ok". Flag it explicitly instead. *)
    (Changed, None)
  else if zeroish base then
    (match dir with
    | Timing -> ((if next > 0.0 then Worse else Better), None)
    | Throughput -> ((if next > 0.0 then Better else Worse), None)
    | Deterministic -> (Changed, None))
  else
    let d = (next -. base) /. Float.abs base in
    match dir with
    | Timing ->
      ((if d > threshold then Worse else if d < -.threshold then Better else Same), Some d)
    | Throughput ->
      ((if d < -.threshold then Worse else if d > threshold then Better else Same), Some d)
    | Deterministic ->
      ((if Float.abs d > det_threshold then Changed else Same), Some d)
