(** The pre-optimization Dijkstra, the measured baseline of the flat core
    in {!Ron_graph.Dijkstra} and the oracle of its equivalence tests. Same
    deterministic tie-break, so every output bit matches
    {!Ron_graph.Dijkstra.run}/{!Ron_graph.Dijkstra.all_pairs}. *)

val run : Ron_graph.Graph.t -> int -> Ron_graph.Dijkstra.sssp
val all_pairs : Ron_graph.Graph.t -> Ron_graph.Dijkstra.sssp array
