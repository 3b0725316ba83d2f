(* Canonical scheme constructions for the serving layer: the CLI, the
   bench serve section, and the round-trip tests all freeze the same live
   instances, so "frozen matches live" means the same thing everywhere. *)

module Rng = Ron_util.Rng
module Generators = Ron_metric.Generators
module Indexed = Ron_metric.Indexed
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric

type live =
  | L_basic of Ron_routing.Basic.t
  | L_labelled of Ron_routing.Labelled.t
  | L_two_mode of Ron_routing.Two_mode.t
  | L_meridian of Ron_smallworld.Meridian.t
  | L_landmark of Ron_labeling.Landmark.t

(* Grid side for the graph-backed schemes: n is treated as a node budget. *)
let side_of n = max 2 (int_of_float (Float.round (sqrt (float_of_int n))))

let build_live ~scheme ~n ~seed =
  match scheme with
  | "basic" ->
    let side = side_of n in
    let sp = Sp_metric.create (Graph_gen.grid side side) in
    L_basic (Ron_routing.Basic.build sp ~delta:0.25)
  | "labelled" ->
    let side = side_of n in
    let sp = Sp_metric.create (Graph_gen.grid side side) in
    L_labelled (Ron_routing.Labelled.build sp ~delta:0.25)
  | "two_mode" ->
    let idx = Indexed.create (Generators.random_cloud (Rng.create seed) ~n ~dim:2) in
    L_two_mode (Ron_routing.Two_mode.build idx ~delta:0.125)
  | "meridian" ->
    let rng = Rng.create seed in
    let idx = Indexed.create (Generators.random_cloud (Rng.split rng) ~n ~dim:2) in
    let nn = Indexed.size idx in
    let perm = Array.init nn Fun.id in
    Rng.shuffle rng perm;
    (* Hold out a fifth of the nodes as non-member targets (Meridian's
       locate queries may name any node, member or not). *)
    let members = Array.sub perm (nn / 5) (nn - (nn / 5)) in
    L_meridian (Ron_smallworld.Meridian.build idx (Rng.split rng) ~ring_size:8 ~members)
  | "landmark" ->
    let side = side_of n in
    let sp = Sp_metric.create (Graph_gen.torus side side) in
    let nn = Ron_graph.Graph.size (Sp_metric.graph sp) in
    (* Beacon count grows with log n, not sqrt n: k full rows are the
       scheme's only superlinear term, and the million-node snapshot must
       stay O(n log n) bytes (same rule as the bench scale section). *)
    let k = max 4 (min 32 (1 + Ron_util.Bits.ilog2_floor nn)) in
    L_landmark (Ron_labeling.Landmark.build sp (Rng.create (seed + 97)) ~k ~local_radius:2.0)
  | other -> failwith (Printf.sprintf "unknown serve scheme %S" other)

let freeze live =
  let img =
    match live with
    | L_basic s -> Frozen_basic.freeze (Ron_routing.Basic.export s)
    | L_labelled s -> Frozen_labelled.freeze (Ron_routing.Labelled.export s)
    | L_two_mode s -> Frozen_two_mode.freeze (Ron_routing.Two_mode.export s)
    | L_meridian s -> Frozen_meridian.freeze (Ron_smallworld.Meridian.export s)
    | L_landmark s -> Frozen_landmark.freeze (Ron_labeling.Landmark.export s)
  in
  match Server.of_image img with Ok t -> t | Error msg -> failwith ("Fixture.freeze: " ^ msg)

let build ~scheme ~n ~seed = freeze (build_live ~scheme ~n ~seed)
