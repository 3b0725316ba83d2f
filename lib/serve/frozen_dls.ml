(* The frozen DLS join (Theorem 3.4 labels) that labelled and two_mode
   share: the label sections, the candidate scan over them, and the dist
   query both schemes answer with it. *)

open Frozen

type t = {
  n : int;
  levels : int;
  prefix : int;
  max_virt : int;
  d_off : ints; (* n+1: CSR over per-node host distances (and hosts) *)
  d_val : floats;
  zoom_first : ints; (* n *)
  zoom_rest : ints; (* n * levels *)
  z_off : ints; (* n * levels + 1 *)
  z_x : ints;
  z_y : ints;
  z_z : ints;
}

(* 8 int sections + 1 float section, appended in this order after the
   owning scheme's own: meta, d_off, zoom_first, zoom_rest, z_off, z_x,
   z_y, z_z | d_val. *)
let ints = 8
let floats = 1

let isecs (e : Ron_labeling.Dls.export) =
  let open Ron_labeling.Dls in
  let z_off, z_x, z_y, z_z = flat_triples (cells e.x_zetas) in
  [
    Image.ints_of_array [| e.x_n; e.x_levels; e.x_prefix_len; e.x_max_virt |];
    Image.ints_of_array (csr_off (Array.map Array.length e.x_dists));
    Image.ints_of_array e.x_zoom_first;
    Image.ints_of_array (cells e.x_zoom_rest);
    z_off;
    z_x;
    z_y;
    z_z;
  ]

let fsecs (e : Ron_labeling.Dls.export) =
  [ Image.floats_of_array (cells e.Ron_labeling.Dls.x_dists) ]

let of_sections (isecs : ints array) (fsecs : floats array) i0 f0 =
  let meta = isecs.(i0) in
  {
    n = ig meta 0;
    levels = ig meta 1;
    prefix = ig meta 2;
    max_virt = ig meta 3;
    d_off = isecs.(i0 + 1);
    d_val = fsecs.(f0);
    zoom_first = isecs.(i0 + 2);
    zoom_rest = isecs.(i0 + 3);
    z_off = isecs.(i0 + 4);
    z_x = isecs.(i0 + 5);
    z_y = isecs.(i0 + 6);
    z_z = isecs.(i0 + 7);
  }

(* ---------------------------------------------------------------- scan *)

(* First index in [s, e) with zx.(i) >= x (entries sorted by (x, y)). *)
let rec z_lower (zx : ints) s e x =
  if s >= e then s
  else begin
    let mid = (s + e) / 2 in
    if ig zx mid < x then z_lower zx (mid + 1) e x else z_lower zx s mid x
  end

(* One candidate pair (iu, iv): fold (du + dv) into fbuf.(0); when
   [exclude >= 0], also track the lex-min (dv, host) beacon excluding that
   node — the Two_mode M1 selection. Mirrors [Dls.candidates]'s emit
   guard; both folds are order-independent, so scan order need not match
   the live candidate list order. *)
let[@inline] emit fd (hosts : ints) sc ~exclude du0 dv0 ku kv iu iv =
  if iu < ku && iv < kv then begin
    let du = fg fd.d_val (du0 + iu) and dv = fg fd.d_val (dv0 + iv) in
    let s = du +. dv in
    if s < sc.fbuf.(0) then sc.fbuf.(0) <- s;
    if exclude >= 0 then begin
      let w = ig hosts (du0 + iu) in
      if w <> exclude && (dv < sc.fbuf.(1) || (dv = sc.fbuf.(1) && w < sc.best_w)) then begin
        sc.best_w <- w;
        sc.fbuf.(1) <- dv
      end
    end
  end

(* Stamp lb's (x = b) run of level-j entries into the y -> z scratch map
   (replacing the live walk's per-level Hashtbl). *)
let rec fill fd sc gen i eb b =
  if i < eb && ig fd.z_x i = b then begin
    let y = ig fd.z_y i in
    sc.right_gen.(y) <- gen;
    sc.right_val.(y) <- ig fd.z_z i;
    fill fd sc gen (i + 1) eb b
  end

(* Join la's (x = a) run against the stamped map, emitting each match. *)
let rec join fd hosts sc ~exclude du0 dv0 ku kv flip gen i ea a =
  if i < ea && ig fd.z_x i = a then begin
    let y = ig fd.z_y i in
    if sc.right_gen.(y) = gen then begin
      let za = ig fd.z_z i and zb = sc.right_val.(y) in
      if flip then emit fd hosts sc ~exclude du0 dv0 ku kv zb za
      else emit fd hosts sc ~exclude du0 dv0 ku kv za zb
    end;
    join fd hosts sc ~exclude du0 dv0 ku kv flip gen (i + 1) ea a
  end

(* The zoom walk of [Dls.walk_candidates] over the flat layout: emit the
   current (a, b) pair, join the two labels' level-j entry runs, then step
   both sides through the source's zoom label; the walk stops silently on
   a failed step, and the final emit fires only when every level stepped
   (j = levels is emit-only). [la]/[lb] are node ids; [flip] swaps the
   emitted pair — the live code's second, symmetric walk. *)
let rec level fd hosts sc ~exclude du0 dv0 ku kv src la lb flip j a b =
  if flip then emit fd hosts sc ~exclude du0 dv0 ku kv b a
  else emit fd hosts sc ~exclude du0 dv0 ku kv a b;
  let levels = fd.levels in
  if j < levels then begin
    sc.gen <- sc.gen + 1;
    let gen = sc.gen in
    let sb = ig fd.z_off ((lb * levels) + j) and eb = ig fd.z_off ((lb * levels) + j + 1) in
    fill fd sc gen (z_lower fd.z_x sb eb b) eb b;
    let sa = ig fd.z_off ((la * levels) + j) and ea = ig fd.z_off ((la * levels) + j + 1) in
    join fd hosts sc ~exclude du0 dv0 ku kv flip gen (z_lower fd.z_x sa ea a) ea a;
    let y = ig fd.zoom_rest ((src * levels) + j) in
    let a' = z_find fd.z_x fd.z_y fd.z_z sa ea a y in
    if a' >= 0 then begin
      let b' = z_find fd.z_x fd.z_y fd.z_z sb eb b y in
      if b' >= 0 then level fd hosts sc ~exclude du0 dv0 ku kv src la lb flip (j + 1) a' b'
    end
  end

let rec prefix fd hosts sc ~exclude du0 dv0 ku kv k kmax =
  if k < kmax then begin
    emit fd hosts sc ~exclude du0 dv0 ku kv k k;
    prefix fd hosts sc ~exclude du0 dv0 ku kv (k + 1) kmax
  end

(* Candidate scan for the pair (u, v): after the call, fbuf.(0) holds
   min (du + dv) over common beacons (infinity if none) and — when
   [exclude >= 0] — best_w / fbuf.(1) hold the lex-min (dv, host) beacon.
   Matches folding [Dls.candidates]: the candidate multisets agree and
   both folds are order-independent (min / lex-min). *)
let scan fd hosts sc ~u ~v ~exclude =
  sc.fbuf.(0) <- infinity;
  if exclude >= 0 then begin
    sc.fbuf.(1) <- infinity;
    sc.best_w <- -1
  end;
  let du0 = ig fd.d_off u and dv0 = ig fd.d_off v in
  let ku = ig fd.d_off (u + 1) - du0 and kv = ig fd.d_off (v + 1) - dv0 in
  prefix fd hosts sc ~exclude du0 dv0 ku kv 0 fd.prefix;
  let zv = ig fd.zoom_first v and zu = ig fd.zoom_first u in
  level fd hosts sc ~exclude du0 dv0 ku kv v u v false 0 zv zv;
  level fd hosts sc ~exclude du0 dv0 ku kv u v u true 0 zu zu

(* The hosts column for scans that track no beacon ([exclude < 0]). *)
let no_hosts : ints = Image.ints_create 0

(* The dist query: [Dls.estimate], which short-circuits identical labels
   to 0, as the point interval fbuf.(3) = fbuf.(4). Labels without a
   common beacon (Theorem 3.4 violated) give (0, infinity), which claims
   nothing. The finiteness test [d -. d = 0.0] is Float.is_finite
   inlined. *)
let estimate fd sc ~src ~dst =
  if src = dst then begin
    sc.fbuf.(3) <- 0.0;
    sc.fbuf.(4) <- 0.0
  end
  else begin
    scan fd no_hosts sc ~u:src ~v:dst ~exclude:(-1);
    let d = sc.fbuf.(0) in
    if d -. d = 0.0 then begin
      sc.fbuf.(3) <- d;
      sc.fbuf.(4) <- d
    end
    else begin
      sc.fbuf.(3) <- 0.0;
      sc.fbuf.(4) <- infinity
    end
  end
