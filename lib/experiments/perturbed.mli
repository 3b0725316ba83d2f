(** Routing and object location under perturbation, written once for
    [ron_cli fault|churn], the fault and churn experiments and the bench
    report: an optional churn schedule applied through the scheme's repair
    hooks, an optional fault model on top, and the live pairs routed
    through both wrappers. The fault-only run is the same call with no
    schedule. *)

type target = {
  n : int;
  dist : int -> int -> float;
  parallel : bool;  (** false when routing mutates shared scheme state *)
  route_wrapped : Ron_routing.Scheme.wrapper -> int -> int -> Ron_routing.Scheme.result;
  repair : Ron_churn.Churn.state -> Ron_churn.Churn.Repair.t;
}
(** A scheme with a wrapped router and churn repair hooks. *)

val basic : Ron_graph.Sp_metric.t -> Ron_routing.Basic.t -> target
val labelled : Ron_graph.Sp_metric.t -> Ron_routing.Labelled.t -> target
val two_mode : Ron_metric.Indexed.t -> Ron_routing.Two_mode.t -> target

val apply :
  Ron_churn.Churn.Schedule.t ->
  Ron_churn.Churn.state ->
  Ron_churn.Churn.Repair.t ->
  Ron_churn.Churn.Driver.summary
(** {!Ron_churn.Churn.Driver.apply} with the probes forced on, so the
    [churn.*] counters see the repair work. *)

type churned = {
  state : Ron_churn.Churn.state;
  summary : Ron_churn.Churn.Driver.summary;
  repair : Ron_churn.Churn.Repair.t;
}

type outcome = {
  quality : Exp_common.route_quality;
  delivered : int;
  delivery_rate : float;
  events : ((string * string) * int) list;
      (** counter deltas over the routes, named by report label and bench
          key: the fault events without a schedule, the churn events with *)
  pairs : (int * int) list;  (** the pairs routed: both ends live *)
  wrapper : int -> Ron_routing.Scheme.wrapper;  (** by query index *)
  churned : churned option;
}

val run :
  ?fault:Ron_fault.Fault.t -> ?schedule:Ron_churn.Churn.Schedule.t -> target -> (int * int) list ->
  outcome
(** Apply the schedule (if any) to a fresh state through the target's
    repair hooks, keep the pairs whose ends are live and not crashed, and
    route them through {!Exp_common.collect_routes_keyed} with the fault
    wrapper composed over the churn wrapper. *)

val per_query : outcome -> string -> float
(** [per_query o label]: the labelled event's delta per routed pair. *)

val injected : ((string * string) * int) list -> int
(** Injected faults: drops plus crashed and dead-link hits. *)

val meridian_instance :
  Ron_util.Rng.t -> Ron_metric.Indexed.t * Ron_smallworld.Meridian.t * int array * int array
(** A ring-size-8 Meridian overlay over 6x30 clustered latencies:
    [(index, overlay, targets, starts)], a fifth of the nodes held out as
    targets, each with a random member to start from. *)

type located = {
  total : int;  (** queries run: both ends live and not crashed *)
  exact : int;  (** queries that found the true closest member *)
  worst_ratio : float;
  probes : int;  (** distance measurements, summed *)
  injected : int;  (** as {!injected}; 0 without a fault model *)
}

val closest :
  ?fault:Ron_fault.Fault.t -> ?live:(int -> bool) -> Ron_metric.Indexed.t ->
  Ron_smallworld.Meridian.t -> starts:int array -> int array -> located
(** Meridian closest-member queries from [starts.(i)] toward each target
    [i], skipping those with a down or crashed end. Under a fault model
    the walks run with the probes forced on and query [i] keys the fault
    draws. *)
