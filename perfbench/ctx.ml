(* What one workload run is given: its seed, its measuring budget, the job
   counts it measures at, where it may write, and the span recorder. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;  (* budget of the timed passes *)
  setup_reps : int;  (* set-ups per run; setup_s is their median *)
  jobs_par : int;  (* the parallel pass's job count: nproc, capped at 2 *)
  clock_call_ns : float;  (* cost of one clock read *)
  last_setup_ns : int ref;  (* the last set-up repetition, heap already grown *)
  out_dir : string;
  spans : Spans.t;
}

let measure ctx name f = Spans.measure ctx.spans name f
let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Integer samples (nanoseconds) in a fixed-size reservoir: pushing never
   allocates, and memory does not grow with the number of rounds, so the
   run's peak RSS does not depend on how fast the machine was. Past
   [capacity] samples, each new one replaces a uniformly drawn slot with
   probability capacity/seen (seeded, so runs repeat). *)
module Samples = struct
  type t = { a : int array; mutable n : int; mutable seen : int; mutable rng : int }

  let create ?(capacity = 1 lsl 19) () = { a = Array.make capacity 0; n = 0; seen = 0; rng = 1 }

  let push t x =
    t.seen <- t.seen + 1;
    if t.n < Array.length t.a then begin
      Array.unsafe_set t.a t.n x;
      t.n <- t.n + 1
    end
    else begin
      t.rng <- Ron_util.Rng.mix t.rng t.seen;
      let j = t.rng mod t.seen in
      if j < t.n then Array.unsafe_set t.a j x
    end

  let to_floats t = Array.init t.n (fun i -> float_of_int t.a.(i))
  let length t = t.seen
end

(* p50 and p99 of latency samples, enforcing the tail-sample rule. Each
   sample spans one clock read besides the timed call, so the cost of one
   read is taken off. *)
let p50_p99 ctx name samples =
  let s = Arith.sorted_copy (Samples.to_floats samples) in
  let n = Array.length s in
  match (Arith.percentile s 0.50, Arith.percentile s 0.99) with
  | (Some p50, Some p99) -> (p50 -. ctx.clock_call_ns, p99 -. ctx.clock_call_ns)
  | _ ->
    raise
      (Check.Failed
         ( "latency_samples",
           Printf.sprintf "%s: %d samples leave fewer than %d beyond p99" name n Arith.min_beyond ))

(* The timed passes run in rounds; a rate is the median of the rounds'
   rates, because the machine's speed drifts from round to round. *)
module Rounds = struct
  type t = { mutable rate1 : float list; mutable ratep : float list }

  let create () = { rate1 = []; ratep = [] }

  let add t ~rate1 ~ratep =
    t.rate1 <- rate1 :: t.rate1;
    t.ratep <- ratep :: t.ratep

  let count t = List.length t.rate1
  let rate1 t = Arith.median (Array.of_list t.rate1)
  let ratep t = Arith.median (Array.of_list t.ratep)
end

(* Peak resident set so far, in MB. Read once the measured work is done. *)
let record_peak_rss () =
  Option.iter
    (fun kb -> Metrics.set "peak_rss_mb" (float_of_int kb /. 1024.0))
    (Ron_obs.Rss.peak_kb ())
