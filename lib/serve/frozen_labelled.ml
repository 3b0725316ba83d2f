(* Frozen Thm 4.1 labelled routing: at each node with no pending target
   the packet picks the neighbor whose DLS estimate to dst is least, then
   follows the first-hop table toward it. *)

open Frozen

type v = {
  n : int;
  max_hops : int;
  hb : ints;
  nbr_off : ints;
  nbr : ints;
  t_off : ints;
  t_w : ints;
  t_next : ints;
  t_cost : floats;
  dls : Frozen_dls.t;
}

(* score(x) = labeled estimate x -> dst, memoized per route, into
   fbuf.(6); false when the labels share no beacon (Theorem 3.4
   violated). [Dls.estimate] short-circuits identical labels to 0; the
   finiteness test is [d -. d = 0.0], i.e. Float.is_finite inlined. *)
let score v sc ~dst x =
  if x = dst then begin
    sc.fbuf.(6) <- 0.0;
    true
  end
  else if sc.memo_gen.(x) = sc.mgen then begin
    sc.fbuf.(6) <- sc.memo_d.(x);
    true
  end
  else begin
    Frozen_dls.scan v.dls Frozen_dls.no_hosts sc ~u:x ~v:dst ~exclude:(-1);
    let d = sc.fbuf.(0) in
    sc.memo_d.(x) <- d;
    sc.memo_gen.(x) <- sc.mgen;
    sc.fbuf.(6) <- d;
    d -. d = 0.0
  end

(* Select the neighbor of [u] minimizing (score, id) into sel_w/fbuf.(5);
   false as soon as a score fails. *)
let rec select v sc ~dst e e1 u =
  if e >= e1 then true
  else begin
    let x = ig v.nbr e in
    if x = u then select v sc ~dst (e + 1) e1 u
    else if not (score v sc ~dst x) then false
    else begin
      let d = sc.fbuf.(6) in
      if d < sc.fbuf.(5) || (d = sc.fbuf.(5) && x < sc.sel_w) then begin
        sc.sel_w <- x;
        sc.fbuf.(5) <- d
      end;
      select v sc ~dst (e + 1) e1 u
    end
  end

(* One hop; the header state is the intermediate target, re-selected
   among the node's neighbors on arrival. *)
let step v sc ~dst ~node ~st:inter =
  let target =
    if inter <> node then inter
    else begin
      sc.fbuf.(5) <- infinity;
      sc.sel_w <- -1;
      if select v sc ~dst (ig v.nbr_off node) (ig v.nbr_off (node + 1)) node then sc.sel_w
      else -1
    end
  in
  let e = if target < 0 then -1 else find v.t_w (ig v.t_off node) (ig v.t_off (node + 1)) target in
  if e >= 0 then begin
    sc.r_next <- ig v.t_next e;
    sc.r_aux <- target
  end;
  e

let of_sections (i : ints array) (f : floats array) =
  let meta = i.(0) in
  {
    n = ig meta 0;
    max_hops = ig meta 1;
    hb = i.(1);
    nbr_off = i.(2);
    nbr = i.(3);
    t_off = i.(4);
    t_w = i.(5);
    t_next = i.(6);
    t_cost = f.(0);
    dls = Frozen_dls.of_sections i f 7 1;
  }

let entry =
  {
    tag = 2;
    name = "labelled";
    ints = 7 + Frozen_dls.ints;
    floats = 1 + Frozen_dls.floats;
    kinds = [| 0; 1; 0 |];
    open_ =
      (fun i f ->
        let v = of_sections i f in
        let r = { step = step v; cost = v.t_cost; max_hops = v.max_hops } in
        {
          n = v.n;
          sources = None;
          bounds = (1, v.dls.max_virt, v.dls.n);
          query =
            (fun sc ~kind ~src ~dst ->
              if kind = 1 then Frozen_dls.estimate v.dls sc ~src ~dst
              else begin
                sc.mgen <- sc.mgen + 1;
                route r sc ~src ~dst ~st:src ~hb:(ig v.hb dst)
              end);
        });
  }

let freeze (e : Ron_routing.Labelled.export) =
  let open Ron_routing.Labelled in
  let nbr_off, nbr = flat_ints e.x_nbrs in
  let t_off, t_w, t_next, t_cost = flat_table e.x_table in
  image entry
    ([
       Image.ints_of_array [| e.x_n; e.x_max_hops |];
       Image.ints_of_array e.x_header_bits;
       nbr_off;
       nbr;
       t_off;
       t_w;
       t_next;
     ]
    @ Frozen_dls.isecs e.x_dls)
    (t_cost :: Frozen_dls.fsecs e.x_dls)
