(* The one clock every benchmark timing reads: CLOCK_MONOTONIC in
   nanoseconds through bechamel's noalloc, unboxed stub. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [timed f] runs [f] and returns its result with the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

type calibration = { step_ns : int; call_ns : float }

(* The smallest nonzero difference between successive reads, and the cost
   of one read: the median of seven tight loops' averages. *)
let calibrate () =
  let step = ref max_int in
  let prev = ref (now_ns ()) in
  for _ = 1 to 200_000 do
    let t = now_ns () in
    let d = t - !prev in
    if d > 0 && d < !step then step := d;
    prev := t
  done;
  let reads = 200_000 in
  let loop () =
    let t0 = now_ns () in
    let sink = ref 0 in
    for _ = 1 to reads do
      sink := !sink lxor now_ns ()
    done;
    let t1 = now_ns () in
    ignore (Sys.opaque_identity !sink);
    float_of_int (t1 - t0) /. float_of_int reads
  in
  { step_ns = !step; call_ns = Arith.median (Array.init 7 (fun _ -> loop ())) }
