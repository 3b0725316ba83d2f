(* Frozen Thm 4.2 two-mode routing: mode M1 zooms on DLS labels toward a
   beacon close to dst; when no beacon is close enough the packet switches
   to M2 and walks the packing-ball directories (hub, then owner). *)

open Frozen

type v = {
  n : int;
  li : int;
  max_hops : int;
  hb : int;
  m1_threshold : float;
  hub_ptr : ints; (* n * li *)
  hub_g : ints; (* li * n; -1 where the node is no hub *)
  dir_off : ints; (* dirs + 1 *)
  dir_mem : ints;
  dir_bnd : ints;
  own_off : ints; (* li * n + 1 *)
  own_tgt : ints;
  r_level : floats; (* n * li *)
  dmat : floats; (* n * n *)
  hosts : ints; (* parallel to the DLS d_val *)
  dls : Frozen_dls.t;
}

(* Mode encoding (the header state): 0 = M1, 2i = M2_hub i, 2i+1 =
   M2_owner i (i >= 1). *)

(* Largest index with boundaries <= target in the directory run at [s]. *)
let rec dir_search v s lo hi target =
  if lo >= hi then lo - 1
  else begin
    let mid = (lo + hi) / 2 in
    if ig v.dir_bnd (s + mid) <= target then dir_search v s (mid + 1) hi target
    else dir_search v s lo mid target
  end

(* [Two_mode.owner_of] over the flat directory [g]. *)
let owner_of v g target =
  let s = ig v.dir_off g and e = ig v.dir_off (g + 1) in
  let m = max 0 (dir_search v s 0 (e - s) target) in
  ig v.dir_mem (s + m)

(* The M2 resolution chain of [Two_mode.step] at node [u]: each function
   either writes (r_next, r_aux = next mode) and returns true (Forward) or
   recurses locally — the packet only leaves through an actual link. It
   returns false where the live step raises: no directory scale left, a
   hub pointer naming no hub, a scale-1 directory missing a target. *)
let rec resolve v sc ~u ~dst i =
  if i < 1 then false
  else begin
    let hub = ig v.hub_ptr ((u * v.li) + i) in
    if hub <> u then begin
      sc.r_next <- hub;
      sc.r_aux <- 2 * i;
      true
    end
    else at_hub v sc ~u ~dst i
  end

and at_hub v sc ~u ~dst i =
  let g = ig v.hub_g ((i * v.n) + u) in
  if g < 0 then false
  else begin
    let owner = owner_of v g dst in
    if owner <> u then begin
      sc.r_next <- owner;
      sc.r_aux <- (2 * i) + 1;
      true
    end
    else as_owner v sc ~u ~dst i
  end

and as_owner v sc ~u ~dst i =
  let s = ig v.own_off ((i * v.n) + u) and e = ig v.own_off ((i * v.n) + u + 1) in
  if find v.own_tgt s e dst >= 0 then begin
    sc.r_next <- dst;
    sc.r_aux <- 0;
    true
  end
  else i > 1 && resolve v sc ~u ~dst (i - 1)

(* [Two_mode.switch_scale]: deepest i >= 1 whose previous-scale radius
   still dominates the (4/3) d~ threshold in fbuf.(7). *)
let rec switch v sc ~u i best =
  if i > v.li - 1 then best
  else if fg v.r_level ((u * v.li) + i - 1) >= sc.fbuf.(7) then switch v sc ~u (i + 1) i
  else best

(* M1 at [u]: forward to the closest beacon when it is within the
   threshold, else switch to M2 at the deepest scale that covers. Labels
   sharing no beacon (Theorem 3.4 violated) fail. *)
let m1 v sc ~u ~dst =
  Frozen_dls.scan v.dls v.hosts sc ~u ~v:dst ~exclude:u;
  let d_est = sc.fbuf.(0) in
  if not (d_est -. d_est = 0.0) then false
  else if sc.best_w >= 0 && sc.fbuf.(1) <= d_est *. v.m1_threshold then begin
    sc.r_next <- sc.best_w;
    sc.r_aux <- 0;
    true
  end
  else begin
    sc.fbuf.(7) <- 4.0 /. 3.0 *. d_est;
    resolve v sc ~u ~dst (switch v sc ~u 1 1)
  end

(* One [Two_mode.step] at a node other than dst; a hop's length is its
   entry in the distance matrix. *)
let step v sc ~dst ~node ~st:mode =
  let forwarded =
    if mode = 0 then m1 v sc ~u:node ~dst
    else if mode land 1 = 0 then at_hub v sc ~u:node ~dst (mode / 2)
    else as_owner v sc ~u:node ~dst (mode / 2)
  in
  if forwarded then (node * v.n) + sc.r_next else -1

let of_sections (i : ints array) (f : floats array) =
  let meta = i.(0) in
  {
    n = ig meta 0;
    li = ig meta 1;
    max_hops = ig meta 2;
    hb = ig meta 3;
    m1_threshold = fg f.(0) 0;
    hub_ptr = i.(1);
    hub_g = i.(2);
    dir_off = i.(3);
    dir_mem = i.(4);
    dir_bnd = i.(5);
    own_off = i.(6);
    own_tgt = i.(7);
    hosts = i.(8);
    r_level = f.(1);
    dmat = f.(2);
    dls = Frozen_dls.of_sections i f 9 3;
  }

let entry =
  {
    tag = 3;
    name = "two_mode";
    ints = 9 + Frozen_dls.ints;
    floats = 3 + Frozen_dls.floats;
    kinds = [| 0; 1; 0 |];
    open_ =
      (fun i f ->
        let v = of_sections i f in
        let r = { step = step v; cost = v.dmat; max_hops = v.max_hops } in
        {
          n = v.n;
          sources = None;
          bounds = (1, v.dls.max_virt, 1);
          query =
            (fun sc ~kind ~src ~dst ->
              if kind = 1 then Frozen_dls.estimate v.dls sc ~src ~dst
              else route r sc ~src ~dst ~st:0 ~hb:v.hb);
        });
  }

let freeze (e : Ron_routing.Two_mode.export) =
  let open Ron_routing.Two_mode in
  let dir_off, dir_mem = flat_ints e.x_dir_members in
  let _, dir_bnd = flat_ints e.x_dir_boundaries in
  let own_off, own_tgt = flat_ints (cells e.x_owned) in
  image entry
    ([
       Image.ints_of_array [| e.x_n; e.x_li; e.x_max_hops; e.x_header_bits |];
       Image.ints_of_array (cells e.x_hub_ptr);
       Image.ints_of_array (cells e.x_hub_g);
       dir_off;
       dir_mem;
       dir_bnd;
       own_off;
       own_tgt;
       Image.ints_of_array (cells e.x_dls.Ron_labeling.Dls.x_hosts);
     ]
    @ Frozen_dls.isecs e.x_dls)
    ([
       Image.floats_of_array [| e.x_m1_threshold |];
       Image.floats_of_array (cells e.x_r_level);
       Image.floats_of_array e.x_dist;
     ]
    @ Frozen_dls.fsecs e.x_dls)
