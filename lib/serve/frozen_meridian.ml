(* Frozen Meridian (§6) closest-node discovery: from a member, poll the
   rings up to about twice the current distance and move to the closest
   polled member while that makes progress. *)

open Frozen

type v = {
  n : int;
  scales : int;
  members : ints;
  r_off : ints; (* n * scales + 1 *)
  r_node : ints;
  dmat : floats; (* n * n *)
}

(* Poll one ring of [u], folding the lex-min (distance-to-target, id) into
   (sel_w, fbuf.(1)) and counting each measurement in r_aux. *)
let rec poll v sc ~target e e1 =
  if e < e1 then begin
    let x = ig v.r_node e in
    sc.r_aux <- sc.r_aux + 1;
    let dx = fg v.dmat ((x * v.n) + target) in
    if dx < sc.fbuf.(1) || (dx = sc.fbuf.(1) && x < sc.sel_w) then begin
      sc.sel_w <- x;
      sc.fbuf.(1) <- dx
    end;
    poll v sc ~target (e + 1) e1
  end

let rec rings v sc ~target u i top =
  if i <= top then begin
    poll v sc ~target (ig v.r_off ((u * v.scales) + i)) (ig v.r_off ((u * v.scales) + i + 1));
    rings v sc ~target u (i + 1) top
  end

(* [Meridian.closest] without faults: poll rings at scales up to ~2d
   (the scale cap is [Bits.flog2] inlined), advance on strict progress.
   fbuf.(0) carries d across hops. *)
let rec go v sc ~target u hops =
  let d = sc.fbuf.(0) in
  let limit =
    if 2.0 *. d <= 1.0 then 0
    else min (v.scales - 1) (int_of_float (Float.ceil (log (2.0 *. d) /. log 2.0)))
  in
  sc.sel_w <- u;
  sc.fbuf.(1) <- d;
  rings v sc ~target u 0 (min limit (v.scales - 1));
  let best = sc.sel_w in
  let bd = sc.fbuf.(1) in
  if best <> u && (bd <= d /. 2.0 || bd < d) then begin
    sc.fbuf.(0) <- bd;
    log_hop sc best;
    go v sc ~target best (hops + 1)
  end
  else begin
    sc.r_hops <- hops;
    sc.r_next <- u
  end

(* Writes r_next = found, r_hops, r_aux = measurements. *)
let locate v sc ~start ~target =
  sc.r_aux <- 1 (* the initial self-measurement *);
  sc.fbuf.(0) <- fg v.dmat ((start * v.n) + target);
  go v sc ~target start 0

let of_sections (i : ints array) (f : floats array) =
  let meta = i.(0) in
  {
    n = ig meta 0;
    scales = ig meta 1;
    members = i.(1);
    r_off = i.(2);
    r_node = i.(3);
    dmat = f.(0);
  }

let entry =
  {
    tag = 4;
    name = "meridian";
    ints = 4;
    floats = 1;
    kinds = [| 2; 2; 2 |];
    open_ =
      (fun i f ->
        let v = of_sections i f in
        {
          n = v.n;
          (* walks must start at ring members *)
          sources = Some v.members;
          bounds = (1, 1, 1);
          query = (fun sc ~kind:_ ~src ~dst -> locate v sc ~start:src ~target:dst);
        });
  }

let freeze (e : Ron_smallworld.Meridian.export) =
  let open Ron_smallworld.Meridian in
  let r_off, r_node = flat_ints (cells e.x_rings) in
  image entry
    [ Image.ints_of_array [| e.x_n; e.x_scales |]; Image.ints_of_array e.x_members; r_off; r_node ]
    [ Image.floats_of_array e.x_dist ]
