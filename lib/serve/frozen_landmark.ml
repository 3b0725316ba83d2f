(* Frozen landmark distance bounds: exact inside a node's local ball or
   against a beacon, else the triangle bounds over every beacon row. *)

open Frozen

type v = {
  n : int;
  k : int;
  col : ints;
  rows : floats; (* k * n row-major *)
  ball_off : ints;
  ball_node : ints;
  ball_dist : floats;
}

let rec beacons v sc ~u ~w i =
  if i < v.k then begin
    let da = fg v.rows ((i * v.n) + u) and db = fg v.rows ((i * v.n) + w) in
    let diff = Float.abs (da -. db) in
    if diff > sc.fbuf.(3) then sc.fbuf.(3) <- diff;
    if da +. db < sc.fbuf.(4) then sc.fbuf.(4) <- da +. db;
    beacons v sc ~u ~w (i + 1)
  end

(* [Landmark.estimate]'s exact branch order: exact on self, exact inside
   the beacon ball, exact when either endpoint is a beacon, else the
   triangle bounds over all beacons. Writes fbuf.(3) = lo, fbuf.(4) = hi. *)
let estimate v sc ~u ~w =
  if u = w then begin
    sc.fbuf.(3) <- 0.0;
    sc.fbuf.(4) <- 0.0
  end
  else begin
    let bi = find v.ball_node (ig v.ball_off u) (ig v.ball_off (u + 1)) w in
    if bi >= 0 then begin
      let d = fg v.ball_dist bi in
      sc.fbuf.(3) <- d;
      sc.fbuf.(4) <- d
    end
    else begin
      let cw = ig v.col w in
      if cw >= 0 then begin
        let d = fg v.rows ((cw * v.n) + u) in
        sc.fbuf.(3) <- d;
        sc.fbuf.(4) <- d
      end
      else begin
        let cu = ig v.col u in
        if cu >= 0 then begin
          let d = fg v.rows ((cu * v.n) + w) in
          sc.fbuf.(3) <- d;
          sc.fbuf.(4) <- d
        end
        else begin
          sc.fbuf.(3) <- 0.0;
          sc.fbuf.(4) <- infinity;
          beacons v sc ~u ~w 0
        end
      end
    end
  end

let of_sections (i : ints array) (f : floats array) =
  let meta = i.(0) in
  {
    n = ig meta 0;
    k = ig meta 1;
    col = i.(2);
    rows = f.(0);
    ball_off = i.(3);
    ball_node = i.(4);
    ball_dist = f.(1);
  }

let entry =
  {
    tag = 5;
    name = "landmark";
    ints = 5;
    floats = 2;
    kinds = [| 1; 1; 1 |];
    open_ =
      (fun i f ->
        let v = of_sections i f in
        {
          n = v.n;
          sources = None;
          bounds = (1, 1, 1);
          query = (fun sc ~kind:_ ~src ~dst -> estimate v sc ~u:src ~w:dst);
        });
  }

let freeze (e : Ron_labeling.Landmark.export) =
  let open Ron_labeling.Landmark in
  let k = Array.length e.x_beacons in
  let rows = Image.floats_create (k * e.x_n) in
  Array.iteri
    (fun i row -> Array.iteri (fun v d -> A1.unsafe_set rows ((i * e.x_n) + v) d) row)
    e.x_rows;
  image entry
    [
      Image.ints_of_array [| e.x_n; k |];
      Image.ints_of_array e.x_beacons;
      Image.ints_of_array e.x_col;
      Image.ints_of_array e.x_ball_off;
      Image.ints_of_array e.x_ball_node;
    ]
    [ rows; Image.floats_of_array e.x_ball_dist ]
