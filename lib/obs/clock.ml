(* CLOCK_MONOTONIC through bechamel's noalloc stub: the stub returns an
   unboxed int64, so [now_ns] inlines to a read with no allocation. *)

let[@inline] now () = Monotonic_clock.now ()
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
