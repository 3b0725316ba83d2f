(** Shortest-paths metric of a weighted graph, with routing support.

    Bundles the shortest-path ground truth behind one interface with two
    backends:

    - {e Eager} — the full all-pairs matrix ({!Dijkstra.all_pairs}): O(n^2)
      memory, O(1) lookups. The reference path, default for small n.
    - {e On-demand} — the cached row oracle ({!Dijkstra.Oracle}): near-linear
      memory, rows computed lazily. The million-node path.

    Both backends run the same single-source core, so every distance and
    first-hop bit is identical between modes; only time/space trade-offs
    differ. Mode selection: the [?mode] argument, else automatic (eager
    iff [n <= 4096]).

    The induced metric (a "doubling graph" in the paper's sense is a graph
    whose [Sp_metric] has low doubling dimension) canonicalizes symmetric
    distances on the smaller endpoint, and first-hop lookup plus
    shortest-path-walk simulation serve every routing scheme. *)

type t

type mode = Eager | On_demand

val create : ?jobs:int -> ?mode:mode -> Graph.t -> t
(** Requires a connected graph. In eager mode the all-pairs computation is
    parallelized over sources (see {!Dijkstra.all_pairs}); in on-demand mode
    construction is O(1) and rows are computed at first touch. The metric's
    values are identical at every job count and in both modes. *)

val graph : t -> Graph.t
val metric : t -> Ron_metric.Metric.t
(** The induced shortest-paths metric (same node ids). *)

val mode : t -> mode

val dist : t -> int -> int -> float

val distances_from : t -> int -> float array
(** [distances_from t s]: a fresh copy of the raw SSSP row from [s]
    (direction [s -> v], {e not} symmetric-canonicalized — on undirected
    graphs the two can differ in the last ulp). One row computation in
    on-demand mode; the building block for landmark schemes. *)

val first_hop_index : t -> int -> int -> int
(** [first_hop_index t u v]: index (into [u]'s out-edges) of the first edge
    of the canonical shortest [u->v] path; [v <> u]. *)

val next_toward : t -> int -> int -> int
(** The node after [u] on the canonical shortest path toward [v]. *)

val path : t -> int -> int -> int list
(** Full canonical shortest path from [u] to [v], inclusive. *)

val sample_ground_truth : t -> seed:int -> count:int -> (int * int * float) array
(** [sample_ground_truth t ~seed ~count]: [count] seeded random pairs
    [(u, v)] with [u <> v], each with its exact metric distance — the
    scalable stand-in for full-matrix stretch measurement. Evaluation is
    grouped by row internally (one SSSP per touched source in on-demand
    mode) but the result is a pure function of (graph, seed, count):
    identical in both modes and at every [RON_JOBS]. *)
