(** Single-source and all-pairs shortest paths with first-hop extraction.

    The routing schemes never store whole paths — only the {e first-hop
    pointer} from [u] towards a neighbor [v]: the index of the first edge of
    some shortest [u->v] path in [u]'s out-edge list (proof of Theorem 2.1).
    Dijkstra from every source yields both the distance matrix (the
    shortest-paths metric of the graph) and all first-hop pointers.

    To make "the" shortest path well defined even with distance ties, ties
    are broken deterministically: among equal-length paths the one whose
    first edge has the smallest index wins (propagated along the search).

    The substrate is allocation-lean: one search core serves full rows,
    {!all_pairs}, the {!Oracle} and radius-bounded balls. Its priority queue
    is a flat binary heap over a [float array] of priorities and an
    [int array] of packed [(first_hop, node)] keys, it reads the graph's own
    CSR arrays (shared read-only across domains), and each domain reuses one
    generation-stamped scratch across runs, so a run costs what it explores
    with no O(n) reset. All-pairs results live in two shared flat [n * n]
    arrays (an unboxed [floatarray] of distances, an [int array] of first
    hops) rather than [n] boxed per-source records. Every entry point
    raises [Invalid_argument] on a source outside [0, n). *)

type sssp = {
  source : int;
  dist : float array;
  first_hop : int array;
      (** [first_hop.(v)]: index into [out_edges g source] of the first edge
          of the chosen shortest path to [v]; [-1] for [v = source] or
          unreachable [v]. *)
}

val run : Graph.t -> int -> sssp

type bounded = {
  center : int;
  radius : float;
  nodes : int array;
      (** Settled nodes — exactly [{ v | dist(center, v) <= radius }] — in
          pop (increasing-distance, deterministic tie-broken) order. *)
  dists : float array;  (** [dists.(i)]: distance to [nodes.(i)]. *)
  hops : int array;
      (** [hops.(i)]: first-hop edge index toward [nodes.(i)]; [-1] for the
          center itself. *)
}

val run_bounded : Graph.t -> int -> radius:float -> bounded
(** Radius-limited Dijkstra with early exit: tentative distances beyond
    [radius] are never enqueued, so the run costs O(ball) — not O(n) — per
    call (per-domain generation-stamped scratch, no O(n) reset). Every
    distance and first-hop bit agrees with {!run} restricted to the ball.
    The workhorse for ring/annulus and local-ball construction. *)

module Oracle : sig
  (** On-demand distance oracle: SSSP rows computed lazily with the same
      core as {!all_pairs} (bit-identical results) and cached in a
      per-domain LRU keyed by source. Lock-free; [RON_JOBS] never changes
      bits. Memory: [capacity] rows of 16 bytes per node, per querying
      domain. *)

  type t

  val create : ?capacity:int -> Graph.t -> t
  (** Default capacity keeps the per-domain cache near 64 MB (at least 2
      rows, at most 32); [RON_ORACLE_ROWS] overrides. *)

  val size : t -> int
  val capacity : t -> int

  val distances : t -> int -> float array
  (** [distances t s]: the full distance row from [s]. Returns the cache's
      own array — read-only, and only valid until [capacity] further
      distinct-source queries on this domain. Copy to retain. *)

  val first_hops : t -> int -> int array
  (** First-hop row from [s], same caching contract as {!distances}. *)

  val distance : t -> int -> int -> float
  val first_hop : t -> int -> int -> int

  val next_toward : t -> int -> int -> int
  (** As {!Dijkstra.next_toward}, over the oracle's rows. *)
end

type apsp
(** All-pairs results in flat row-major storage: the distance and first-hop
    from [u] to [v] live at offset [u * n + v]. *)

val all_pairs : ?jobs:int -> Graph.t -> apsp
(** One Dijkstra per source, parallelized over sources ({!Ron_util.Pool}:
    [?jobs], else [RON_JOBS], else the hardware recommendation). Sources
    write disjoint rows, so the result is bit-identical at every job count.
    O(n (m + n log n)) work. *)

val size : apsp -> int
val distance : apsp -> int -> int -> float
val first_hop : apsp -> int -> int -> int
(** [-1] for [v = u] or unreachable [v]. *)

val next_toward : Graph.t -> apsp -> int -> int -> int
(** [next_toward g a u v]: the node after [u] on the canonical shortest
    [u -> v] path. Raises [Invalid_argument] if [v = u] or unreachable. *)
