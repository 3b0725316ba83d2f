(** Canonical scheme constructions for the serving layer: CLI, bench, and
    tests freeze the same live instances. *)

type live =
  | L_basic of Ron_routing.Basic.t
  | L_labelled of Ron_routing.Labelled.t
  | L_two_mode of Ron_routing.Two_mode.t
  | L_meridian of Ron_smallworld.Meridian.t
  | L_landmark of Ron_labeling.Landmark.t

val build_live : scheme:string -> n:int -> seed:int -> live
(** Build the named scheme at roughly [n] nodes (graph-backed schemes
    round [n] to a grid). Raises [Failure] on an unknown name. *)

val freeze : live -> Server.t
val build : scheme:string -> n:int -> seed:int -> Server.t
