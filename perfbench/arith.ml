(* The benchmark's own arithmetic: percentiles with the tail-sample rule,
   medians, geometric means, failure accounting and span self times. Pure
   functions, covered by test/test_perfbench.ml. *)

(* Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
   sorted samples. A percentile is reportable only when at least
   [min_beyond] samples lie strictly beyond that rank, so a p99 needs
   n >= 1000. *)
let min_beyond = 10

let rank ~n q =
  if n <= 0 then invalid_arg "Arith.rank: no samples";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Arith.rank: q outside (0, 1]";
  max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let beyond ~n q = n - rank ~n q
let percentile_ok ~n q = n > 0 && beyond ~n q >= min_beyond

(* Sorted-ascending input. [None] when the tail rule fails. *)
let percentile sorted q =
  let n = Array.length sorted in
  if percentile_ok ~n q then Some sorted.(rank ~n q - 1) else None

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = sorted_copy a in
    if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  end

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* Geometric mean of strictly positive values; [nan] when any value is not
   positive and finite (a combined metric must never hide a zero). *)
let geomean a =
  let n = Array.length a in
  if n = 0 || Array.exists (fun x -> not (x > 0.0 && Float.is_finite x)) a then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int n)

(* ---------------------------------------------------- failure accounting *)

(* Attempted and failed operations. A failure is counted against the
   number attempted; an empty tally has no failure fraction. *)
type tally = { attempted : int; failed : int }

let tally_zero = { attempted = 0; failed = 0 }
let tally_add a b = { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let record t ~ok = { attempted = t.attempted + 1; failed = (if ok then t.failed else t.failed + 1) }

let failed_frac t =
  if t.attempted <= 0 then nan else float_of_int t.failed /. float_of_int t.attempted

let success_frac t = if t.attempted <= 0 then nan else 1.0 -. failed_frac t

(* ------------------------------------------------------------ self time *)

(* A span's self time is its duration minus the part of its interval that
   its direct children cover. Children may overlap (parallel work) or
   poke outside the parent; only the union of their clipped intervals is
   subtracted. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) clipped in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc + (b - a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
          if a <= cb then go acc (Some (ca, max cb b)) rest
          else go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None sorted

let self_time ~start ~stop children = stop - start - covered ~lo:start ~hi:stop children
