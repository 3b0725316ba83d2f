(* Unicode block-element sparklines for sparse telemetry series, shared
   by ron_cli report telemetry and unit-tested directly. A series is (sample
   index, value) points in ascending index order over [0, samples);
   sections only carry a name once it has something to report, so indices
   may be sparse and may start late.

   Gaps are filled by carry-forward — and, crucially, samples *before*
   the first point carry the first point's value backward rather than a
   fabricated 0.0: a constant-valued series that starts late must render
   flat, not as a cliff from a zero it never reported. Flat series (and
   single-sample series, which are flat by construction) have no range to
   scale against and render as a run of mid-level blocks instead of
   dividing by zero. *)

let default_width = 40

let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let mid_level = 3

let render ?(width = default_width) ~samples points =
  if samples <= 0 || points = [] || width <= 0 then ""
  else begin
    let filled = Array.make samples 0.0 in
    let first = snd (List.hd points) in
    let rec fill prev i points =
      if i >= samples then ()
      else
        match points with
        | (j, v) :: rest when j = i ->
          filled.(i) <- v;
          fill v (i + 1) rest
        | _ ->
          filled.(i) <- prev;
          fill prev (i + 1) points
    in
    fill first 0 points;
    let w = min width samples in
    let cols =
      Array.init w (fun c ->
          (* Column c averages the sample range it covers. *)
          let lo = c * samples / w and hi = max 1 ((c + 1) * samples / w) in
          let hi = max (lo + 1) hi in
          let sum = ref 0.0 in
          for i = lo to hi - 1 do
            sum := !sum +. filled.(i)
          done;
          !sum /. float_of_int (hi - lo))
    in
    let mn = Array.fold_left Float.min infinity cols in
    let mx = Array.fold_left Float.max neg_infinity cols in
    let buf = Buffer.create (3 * w) in
    Array.iter
      (fun v ->
        let level =
          if mx -. mn <= 0.0 then mid_level
          else
            let t = (v -. mn) /. (mx -. mn) in
            max 0 (min 7 (int_of_float (t *. 7.999)))
        in
        Buffer.add_string buf levels.(level))
      cols;
    Buffer.contents buf
  end
