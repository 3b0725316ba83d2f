module C = Exp_common
module Rng = Ron_util.Rng
module Indexed = Ron_metric.Indexed
module Sp_metric = Ron_graph.Sp_metric
module Scheme = Ron_routing.Scheme
module Fault = Ron_fault.Fault
module Churn = Ron_churn.Churn
module Meridian = Ron_smallworld.Meridian
module Probe = Ron_obs.Probe

type target = {
  n : int;
  dist : int -> int -> float;
  parallel : bool;
  route_wrapped : Scheme.wrapper -> int -> int -> Scheme.result;
  repair : Churn.state -> Churn.Repair.t;
}

let on_graph sp route_wrapped repair =
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  { n; dist = Sp_metric.dist sp; parallel = true; route_wrapped; repair = repair n }

let basic sp b =
  on_graph sp
    (fun w u v -> Ron_routing.Basic.route_wrapped w b ~src:u ~dst:v)
    (fun _ -> Churn.Repair.basic b)

let labelled sp l =
  on_graph sp
    (fun w u v -> Ron_routing.Labelled.route_wrapped w l ~src:u ~dst:v)
    (fun n -> Churn.Repair.labelled ~n l)

(* Two_mode.route counts mode switches in shared state: sequential. *)
let two_mode idx tm =
  {
    n = Indexed.size idx;
    dist = Indexed.dist idx;
    parallel = false;
    route_wrapped = (fun w u v -> Ron_routing.Two_mode.route_wrapped w tm ~src:u ~dst:v);
    repair = Churn.Repair.two_mode tm;
  }

let fault_events =
  [
    (("drops injected", "fault_drops"), Probe.fault_drops);
    (("crashed hits", "fault_crashed_hits"), Probe.fault_crashed_hits);
    (("dead-link hits", "fault_dead_links"), Probe.fault_dead_links);
    (("retries", "fault_retries"), Probe.fault_retries);
    (("detours", "fault_detours"), Probe.fault_detours);
  ]

let churn_events =
  [
    (("stale hits", "churn_stale_hits"), Probe.churn_stale_hits);
    (("detours", "churn_detours"), Probe.churn_detours);
  ]

let count events label =
  List.fold_left (fun acc ((l, _), d) -> if l = label then acc + d else acc) 0 events

let injected events =
  count events "drops injected" + count events "crashed hits" + count events "dead-link hits"

let apply sched st (r : Churn.Repair.t) =
  Probe.forced (fun () ->
      Churn.Driver.apply sched st ~on_leave:r.leave ~on_join:r.join ~backlog:r.backlog ())

type churned = { state : Churn.state; summary : Churn.Driver.summary; repair : Churn.Repair.t }

type outcome = {
  quality : C.route_quality;
  delivered : int;
  delivery_rate : float;
  events : ((string * string) * int) list;
  pairs : (int * int) list;
  wrapper : int -> Scheme.wrapper;
  churned : churned option;
}

(* A query runs only when both of its ends are live and not crashed. *)
let up ?fault live v = live v && match fault with Some f -> not (Fault.crashed f v) | None -> true

let run ?fault ?schedule (t : target) pairs =
  let churned =
    Option.map
      (fun sched ->
        let state = Churn.state_of_schedule sched in
        let repair = t.repair state in
        { state; summary = apply sched state repair; repair })
      schedule
  in
  let live = match churned with Some c -> Churn.is_live c.state | None -> fun _ -> true in
  let pairs = List.filter (fun (u, v) -> up ?fault live u && up ?fault live v) pairs in
  (* Churn detours innermost, fault injection on top; either layer may be
     the identity, which composes away. *)
  let cw =
    match churned with Some c -> Churn.wrapper c.state | None -> Scheme.identity_wrapper
  in
  let wrapper query =
    match fault with Some f -> Scheme.compose (Fault.wrapper f ~query) cw | None -> cw
  in
  let quality, events =
    Probe.deltas
      (if Option.is_none churned then fault_events else churn_events)
      (fun () ->
        C.collect_routes_keyed ~parallel:t.parallel
          ~route:(fun ~query u v -> t.route_wrapped (wrapper query) u v)
          ~dist:t.dist pairs)
  in
  let delivered = quality.C.queries - quality.C.failures in
  {
    quality;
    delivered;
    delivery_rate = float_of_int delivered /. float_of_int (max 1 quality.C.queries);
    events;
    pairs;
    wrapper;
    churned;
  }

let per_query o label =
  float_of_int (count o.events label) /. float_of_int (max 1 o.quality.C.queries)

let meridian_instance rng =
  let idx =
    Indexed.create
      (Ron_metric.Generators.clustered_latency (Rng.split rng) ~clusters:6 ~per_cluster:30
         ~spread:30.0 ~access:6.0)
  in
  let n = Indexed.size idx in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let cut = n / 5 in
  let targets = Array.sub perm 0 cut and members = Array.sub perm cut (n - cut) in
  let m = Meridian.build idx (Rng.split rng) ~ring_size:8 ~members in
  let starts = Array.map (fun _ -> members.(Rng.int rng (Array.length members))) targets in
  (idx, m, targets, starts)

type located = {
  total : int;
  exact : int;
  worst_ratio : float;
  probes : int;
  injected : int;
}

let closest ?fault ?(live = fun _ -> true) idx m ~starts targets =
  let exact = ref 0 and total = ref 0 and ratio = ref 1.0 and probes = ref 0 in
  let walk () =
    Array.iteri
      (fun i target ->
        let start = starts.(i) in
        if up ?fault live start && up ?fault live target then begin
          let r = Meridian.closest ?fault:(Option.map (fun f -> (f, i)) fault) m ~start ~target in
          let truth = Meridian.exact_closest m target in
          incr total;
          probes := !probes + r.Meridian.measurements;
          if r.Meridian.found = truth then incr exact
          else begin
            let a = Indexed.dist idx r.Meridian.found target
            and b = Indexed.dist idx truth target in
            ratio := Float.max !ratio (a /. Float.max b 1e-12)
          end
        end)
      targets
  in
  let injected =
    match fault with
    | None -> walk (); 0
    | Some _ -> injected (snd (Probe.deltas fault_events (fun () -> Probe.forced walk)))
  in
  { total = !total; exact = !exact; worst_ratio = !ratio; probes = !probes; injected }
