(* Frozen Thm 2.1 basic routing: the packet carries dst's zooming label
   and the current level, and every hop decodes the label through the
   node's translation maps and forwards along its first-hop table. *)

open Frozen

type v = {
  n : int;
  scales : int;
  max_hops : int;
  hb : ints;
  label_first : ints;
  label_rest : ints; (* n * (scales - 1) *)
  enum_off : ints; (* n * scales + 1 *)
  enum_node : ints;
  z_off : ints; (* n * (scales - 1) + 1 *)
  z_x : ints;
  z_y : ints;
  z_z : ints;
  t_off : ints; (* n + 1 *)
  t_w : ints;
  t_next : ints;
  t_cost : floats;
}

(* Walk dst's zooming label through u's translation maps level by level,
   exactly like [Zooming.decode_walk]; fills sc.m and returns jut, the
   last valid index. *)
let rec decode_walk v sc ~u ~dst sm1 j mm =
  if j >= sm1 then j
  else begin
    let y = ig v.label_rest ((dst * sm1) + j) in
    let s = ig v.z_off ((u * sm1) + j) and e = ig v.z_off ((u * sm1) + j + 1) in
    let z = z_find v.z_x v.z_y v.z_z s e mm y in
    if z < 0 then j
    else begin
      sc.m.(j + 1) <- z;
      decode_walk v sc ~u ~dst sm1 (j + 1) z
    end
  end

let decode v sc ~u ~dst =
  let first = ig v.label_first dst in
  sc.m.(0) <- first;
  decode_walk v sc ~u ~dst (v.scales - 1) 0 first

(* The ring member [m.(j)] of node's level-j enumeration. *)
let[@inline] member v sc node j = ig v.enum_node (ig v.enum_off ((node * v.scales) + j) + sc.m.(j))

(* One hop; the header state is the level field (-1 = None). A level past
   jut breaks Claim 2.4(b), an intermediate target equal to the node
   breaks the invariant, and a target missing from the table has no first
   hop: each is an image the walk cannot finish. *)
let step v sc ~dst ~node ~st:level =
  let jut = decode v sc ~u:node ~dst in
  if level > jut then -1
  else begin
    (* Zoom to jut with no level yet, or once node is the level's target. *)
    let j = if level = -1 || member v sc node level = node then jut else level in
    let w = member v sc node j in
    let e = if w = node then -1 else find v.t_w (ig v.t_off node) (ig v.t_off (node + 1)) w in
    if e >= 0 then begin
      sc.r_next <- ig v.t_next e;
      sc.r_aux <- j
    end;
    e
  end

let of_sections (i : ints array) (f : floats array) =
  let meta = i.(0) in
  {
    n = ig meta 0;
    scales = ig meta 1;
    max_hops = ig meta 2;
    hb = i.(1);
    label_first = i.(2);
    label_rest = i.(3);
    enum_off = i.(4);
    enum_node = i.(5);
    z_off = i.(6);
    z_x = i.(7);
    z_y = i.(8);
    z_z = i.(9);
    t_off = i.(10);
    t_w = i.(11);
    t_next = i.(12);
    t_cost = f.(0);
  }

let entry =
  {
    tag = 1;
    name = "basic";
    ints = 13;
    floats = 1;
    kinds = [| 0; 0; 0 |];
    open_ =
      (fun i f ->
        let v = of_sections i f in
        let r = { step = step v; cost = v.t_cost; max_hops = v.max_hops } in
        {
          n = v.n;
          sources = None;
          bounds = (v.scales + 1, 1, 1);
          query = (fun sc ~kind:_ ~src ~dst -> route r sc ~src ~dst ~st:(-1) ~hb:(ig v.hb dst));
        });
  }

let freeze (e : Ron_routing.Basic.export) =
  let open Ron_routing.Basic in
  let enum_off, enum_node = flat_ints (cells e.x_enums) in
  let z_off, z_x, z_y, z_z = flat_triples (cells e.x_zetas) in
  let t_off, t_w, t_next, t_cost = flat_table e.x_table in
  image entry
    [
      Image.ints_of_array [| e.x_n; e.x_scales; e.x_max_hops |];
      Image.ints_of_array e.x_header_bits;
      Image.ints_of_array e.x_label_first;
      Image.ints_of_array (cells e.x_label_rest);
      enum_off;
      enum_node;
      z_off;
      z_x;
      z_y;
      z_z;
      t_off;
      t_w;
      t_next;
    ]
    [ t_cost ]
