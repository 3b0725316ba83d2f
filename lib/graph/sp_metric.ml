module Rng = Ron_util.Rng

type mode = Eager | On_demand

type backend = Apsp of Dijkstra.apsp | Oracle of Dijkstra.Oracle.t

type t = { graph : Graph.t; backend : backend; metric : Ron_metric.Metric.t }

(* Below this size the full matrix is two 128 MB-ish arrays at worst and the
   eager build is seconds; above it the O(n^2) wall bites and the oracle
   wins. Existing experiments all sit below the threshold, so defaults keep
   their output byte-identical. *)
let eager_threshold = 4096

let raw_dist backend u v =
  match backend with
  | Apsp a -> Dijkstra.distance a u v
  | Oracle o -> Dijkstra.Oracle.distance o u v

let create ?jobs ?mode g =
  Ron_obs.Profile.phase "construct.sp_metric" @@ fun () ->
  if not (Graph.is_connected g) then invalid_arg "Sp_metric.create: graph must be connected";
  let n = Graph.size g in
  let backend =
    match Option.value mode ~default:(if n <= eager_threshold then Eager else On_demand) with
    | Eager -> Apsp (Dijkstra.all_pairs ?jobs g)
    | On_demand -> Oracle (Dijkstra.Oracle.create g)
  in
  (* On an undirected graph the two directions can differ in the last ulp
     (float additions in opposite order); canonicalize on the smaller
     endpoint so the metric is exactly symmetric. *)
  let symmetric_dist u v =
    if u <= v then raw_dist backend u v else raw_dist backend v u
  in
  let metric = Ron_metric.Metric.create ~name:"sp-metric" n symmetric_dist in
  { graph = g; backend; metric }

let graph t = t.graph
let metric t = t.metric
let mode t = match t.backend with Apsp _ -> Eager | Oracle _ -> On_demand

let dist t u v =
  if u <= v then raw_dist t.backend u v else raw_dist t.backend v u

let distances_from t s =
  match t.backend with
  | Apsp a ->
    let n = Dijkstra.size a in
    Array.init n (fun v -> Dijkstra.distance a s v)
  | Oracle o -> Array.copy (Dijkstra.Oracle.distances o s)

let first_hop_index t u v =
  if u = v then invalid_arg "Sp_metric.first_hop_index: u = v";
  match t.backend with
  | Apsp a -> Dijkstra.first_hop a u v
  | Oracle o -> Dijkstra.Oracle.first_hop o u v

let next_toward t u v =
  match t.backend with
  | Apsp a -> Dijkstra.next_toward t.graph a u v
  | Oracle o -> Dijkstra.Oracle.next_toward o u v

let path t u v =
  let rec go acc cur =
    if cur = v then List.rev (v :: acc)
    else go (cur :: acc) (next_toward t cur v)
  in
  go [] u

(* Seeded exact ground truth on a pair sample: the scalable stand-in for
   "compare against the full matrix" at large n. Pairs are drawn in one
   deterministic stream; evaluation is grouped by canonical (smaller)
   endpoint so the oracle computes each touched row once, then results are
   returned in draw order — so the output is a pure function of (graph,
   seed, count), independent of mode and RON_JOBS. *)
let sample_ground_truth t ~seed ~count =
  if count < 0 then invalid_arg "Sp_metric.sample_ground_truth: negative count";
  let n = Graph.size t.graph in
  if n < 2 then invalid_arg "Sp_metric.sample_ground_truth: need at least two nodes";
  let rng = Rng.create seed in
  let us = Array.make count 0 and vs = Array.make count 0 in
  for i = 0 to count - 1 do
    let u = Rng.int rng n in
    let v = ref (Rng.int rng n) in
    while !v = u do v := Rng.int rng n done;
    us.(i) <- u;
    vs.(i) <- !v
  done;
  let order = Array.init count (fun i -> i) in
  let key i = if us.(i) <= vs.(i) then us.(i) else vs.(i) in
  Array.sort
    (fun a b ->
      let c = Int.compare (key a) (key b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let out = Array.make count 0.0 in
  Array.iter
    (fun i ->
      out.(i) <- dist t us.(i) vs.(i);
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    order;
  Array.init count (fun i -> (us.(i), vs.(i), out.(i)))
