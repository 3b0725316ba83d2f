module C = Exp_common
module P = Perturbed
module Rng = Ron_util.Rng
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Fault = Ron_fault.Fault
module Meridian = Ron_smallworld.Meridian
module Landmark = Ron_labeling.Landmark
module Churn = Ron_churn.Churn
module Probe = Ron_obs.Probe

(* Churn sweep: symmetric join/leave rates over a fixed slot budget. Rate 0
   produces a null schedule — no events, identity wrapper — so that row is
   byte-identical to routing with no churn layer at all. The schedule seed
   is fixed; the whole sweep is a pure function of the code and runs
   bit-identically at every RON_JOBS. *)
let rates = [ 0.0; 0.02; 0.05; 0.1 ]

let churn_seed = 9191
let slots = 120

let schedule_for ?eligible ~n rate =
  Churn.Schedule.make ~seed:churn_seed ?eligible ~n ~slots ~join_rate:rate
    ~leave_rate:rate ()

(* The landmark subsection exercises repair at scale; override for smoke
   runs (RON_CHURN_N=2000) without recompiling. Committed expectation
   output uses the default. *)
let landmark_n () =
  match Sys.getenv_opt "RON_CHURN_N" with
  | None | Some "" -> 10_000
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 16 -> n
      | _ -> failwith (Printf.sprintf "bad RON_CHURN_N %S" s))

let ev_cell (s : Churn.Driver.summary) =
  C.cell ~w:9 (Printf.sprintf "%dJ/%dL" s.Churn.Driver.joins s.Churn.Driver.leaves)

let per_event total events = float_of_int total /. float_of_int (max 1 events)

(* One sweep row: apply the rate's schedule through the scheme's repair
   hooks, then route the still-live sampled pairs through the churn
   wrapper (optionally under a fault model). [stale] is the repair
   structure's residual stale-reference count — the invariant the
   incremental repair maintains at 0. *)
let sweep_row ?label ?fault target pairs base_stretch rate =
  let o = P.run ?fault ~schedule:(schedule_for ~n:target.P.n rate) target pairs in
  let c = Option.get o.P.churned and q = o.P.quality in
  let summary = c.P.summary in
  let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
  if Float.is_nan !base_stretch then base_stretch := q.C.stretch_mean;
  C.row
    [
      (match label with
      | Some s -> C.cell ~w:5 s
      | None -> C.cell_float ~w:5 ~prec:2 rate);
      ev_cell summary;
      C.cell_int ~w:6 q.C.queries;
      C.cell_float ~w:9 o.P.delivery_rate;
      C.cell_float ~w:11 q.C.stretch_mean;
      C.cell_float ~w:8 (q.C.stretch_mean /. !base_stretch);
      C.cell_float ~w:8 (P.per_query o "stale hits");
      C.cell_float ~w:9 (P.per_query o "detours");
      C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
      C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
      C.cell_int ~w:6 (c.P.repair.Churn.Repair.stale ());
    ];
  if q.C.failures > 0 then C.note (C.pp_observed q);
  if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ()

let sweep target pairs =
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:6 "pairs";
      C.cell ~w:9 "del.rate"; C.cell ~w:11 "stretch mn"; C.cell ~w:8 "inflate";
      C.cell ~w:8 "stale/q"; C.cell ~w:9 "detour/q"; C.cell ~w:7 "rep/ev";
      C.cell ~w:9 "refill/ev"; C.cell ~w:6 "stale";
    ];
  let base = ref nan in
  List.iter (sweep_row target pairs base) rates;
  base

let sections () =
  let rng = Rng.create 83 in

  let sp = Sp_metric.create (Graph_gen.grid 10 10) in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let pairs = C.sample_pairs (Rng.split rng) ~n ~count:500 in

  C.subsection "Thm 2.1 (Basic) on grid10x10: ring refill by bounded-radius exploration";
  let basic = P.basic sp (Ron_routing.Basic.build sp ~delta:0.25) in
  let base = sweep basic pairs in
  (* One composed row: churn at 0.05 plus per-hop message drops — the two
     wrappers stack through Scheme.compose, drops outermost. *)
  let fault = Fault.make ~seed:4242 ~crash_fraction:0.0 ~drop_rate:0.0125 ~dead_link_fraction:0.0 ~n () in
  sweep_row ~label:"+drop" ~fault basic pairs base 0.05;
  C.note "Leaves are repaired in place: each ring that lost a member refills with";
  C.note "the nearest live node inside the ring's own ball (never a rebuild).";

  C.subsection "Thm 4.1 (Labelled) on grid10x10: neighbor-table overlay repair";
  ignore (sweep (P.labelled sp (Ron_routing.Labelled.build sp ~delta:0.25)) pairs);
  C.note "A departed neighbor is substituted from the referrer's own pristine row;";
  C.note "a rejoin re-derives its label and is re-adopted at its old positions.";

  (* Grids are degenerate for two-mode churn (every node self-hubs a
     singleton directory, so there is nothing to repair); the clustered
     latency metric produces real cross-node hub and directory entries. *)
  C.subsection "Thm 4.2 (Two-mode) on clustered latencies: hub + directory overlay repair";
  let idx8 =
    Indexed.create
      (Generators.clustered_latency (Rng.split rng) ~clusters:6 ~per_cluster:30
         ~spread:30.0 ~access:6.0)
  in
  let tm = P.two_mode idx8 (Ron_routing.Two_mode.build idx8 ~delta:0.125) in
  ignore (sweep tm (C.sample_pairs (Rng.split rng) ~n:tm.P.n ~count:300));
  C.note "Directory entries are repaired at their hub node; any live member of a";
  C.note "scale-i directory can stand in for a departed one.";

  C.subsection "Meridian: membership churn with ranked ring replacement";
  let idxm, m0, targets, starts = P.meridian_instance rng in
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:8 "queries";
      C.cell ~w:11 "exact hits"; C.cell ~w:12 "worst ratio"; C.cell ~w:7 "rep/ev";
      C.cell ~w:9 "refill/ev";
    ];
  List.iter
    (fun rate ->
      let sched = schedule_for ~eligible:(fun v -> Meridian.is_member m0 v) ~n:(Indexed.size idxm) rate in
      let st = Churn.state_of_schedule sched in
      let mc = Meridian.copy m0 in
      let mrng = Rng.create (Rng.mix churn_seed 0x7e5d) in
      let leave v =
        let updates, refills = Meridian.leave_counted mc v in
        { Churn.updates; refills; relabels = 0 }
      and join v =
        let w = Meridian.join_counted mc mrng v in
        { Churn.updates = w; refills = w; relabels = 0 }
      in
      let summary =
        P.apply sched st { Churn.Repair.leave; join; backlog = (fun () -> 0); stale = (fun () -> 0) }
      in
      let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
      let l = P.closest ~live:(Churn.is_live st) idxm mc ~starts targets in
      C.row
        [
          C.cell_float ~w:5 ~prec:2 rate;
          ev_cell summary;
          C.cell_int ~w:8 l.P.total;
          C.cell ~w:11 (Printf.sprintf "%d/%d" l.P.exact l.P.total);
          C.cell_float ~w:12 l.P.worst_ratio;
          C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
          C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
        ];
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates;
  C.note "leave_counted answers Section 6's maintenance question incrementally:";
  C.note "each ring that lost the departed member refills with the nearest live";
  C.note "same-annulus member — queries keep settling on near-optimal nodes.";

  let nl = landmark_n () in
  C.subsection (Printf.sprintf "Landmark labeling on torus (n=%d): ball repair at scale" nl);
  let side = max 2 (int_of_float (Float.round (sqrt (float_of_int nl)))) in
  let g = Graph_gen.torus side side in
  let nn = Ron_graph.Graph.size g in
  let spl = Sp_metric.create g in
  let k = max 4 (min 32 (1 + Ron_util.Bits.ilog2_floor nn)) in
  let lm = Landmark.build spl (Rng.create 97) ~k ~local_radius:2.0 in
  let is_beacon = Array.make nn false in
  Array.iter (fun b -> is_beacon.(b) <- true) (Landmark.beacons lm);
  let balls = Array.init nn (fun u -> Landmark.ball_members lm u) in
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:7 "live";
      C.cell ~w:7 "rep/ev"; C.cell ~w:9 "refill/ev"; C.cell ~w:10 "relabel/ev";
      C.cell ~w:8 "backlog"; C.cell ~w:6 "stale";
    ];
  List.iter
    (fun rate ->
      let sched = schedule_for ~eligible:(fun v -> not is_beacon.(v)) ~n:nn rate in
      let st = Churn.state_of_schedule sched in
      let r =
        Churn.Repair.overlay st balls ~relabel_cost:(fun v -> k + Array.length balls.(v))
      in
      let summary = P.apply sched st r in
      let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
      C.row
        [
          C.cell_float ~w:5 ~prec:2 rate;
          ev_cell summary;
          C.cell_int ~w:7 (Churn.live_count st);
          C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
          C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
          C.cell_float ~w:10 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.relabels events);
          C.cell_int ~w:8 (r.Churn.Repair.backlog ());
          C.cell_int ~w:6 (r.Churn.Repair.stale ());
        ];
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates;
  C.note "Beacons are fenced off the schedule (their rows are load-bearing); a";
  C.note "rejoining node re-derives k beacon distances plus its ball — per-event";
  C.note "work stays bounded by the event's footprint, independent of n."

let run () =
  C.section "CHURN"
    "Dynamic membership: seeded joins/leaves with incremental ring repair";
  let (), rebuilds = Probe.deltas [ ("churn.rebuilds", Probe.churn_rebuilds) ] sections in
  List.iter
    (fun (name, d) ->
      C.note (Printf.sprintf "%s = %d (incremental repair only; must stay 0)" name d))
    rebuilds
