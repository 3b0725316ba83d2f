module C = Exp_common
module P = Perturbed
module Rng = Ron_util.Rng
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Fault = Ron_fault.Fault

(* One shared fault axis: at rate r, a fraction r of nodes crash, and both
   the per-hop drop coin and the dead-link coin fire at r/4. The model seed
   is fixed, so the whole sweep is a pure function of the code. *)
let rates = [ 0.0; 0.01; 0.02; 0.05; 0.1 ]

let fault_for ~n rate =
  Fault.make ~seed:4242 ~crash_fraction:rate ~drop_rate:(rate /. 4.0)
    ~dead_link_fraction:(rate /. 4.0) ~n ()

let sweep target pairs =
  C.header
    [
      C.cell ~w:6 "rate"; C.cell ~w:7 "pairs"; C.cell ~w:10 "delivered"; C.cell ~w:9 "del.rate";
      C.cell ~w:11 "stretch mn"; C.cell ~w:9 "inflate"; C.cell ~w:9 "detour/q";
      C.cell ~w:9 "retry/q"; C.cell ~w:9 "faults";
    ];
  let base_stretch = ref nan in
  List.iter
    (fun rate ->
      let o = P.run ~fault:(fault_for ~n:target.P.n rate) target pairs in
      let q = o.P.quality in
      if Float.is_nan !base_stretch then base_stretch := q.C.stretch_mean;
      C.row
        [
          C.cell_float ~w:6 ~prec:2 rate;
          C.cell_int ~w:7 q.C.queries;
          C.cell_int ~w:10 o.P.delivered;
          C.cell_float ~w:9 o.P.delivery_rate;
          C.cell_float ~w:11 q.C.stretch_mean;
          C.cell_float ~w:9 (q.C.stretch_mean /. !base_stretch);
          C.cell_float ~w:9 (P.per_query o "detours");
          C.cell_float ~w:9 (P.per_query o "retries");
          C.cell_int ~w:9 (P.injected o.P.events);
        ];
      if q.C.failures > 0 then C.note (C.pp_observed q);
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates

let run () =
  C.section "FAULT"
    "Graceful degradation: routing and object location under injected faults";
  let rng = Rng.create 77 in

  let sp = Sp_metric.create (Ron_graph.Graph_gen.grid 10 10) in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let pairs = C.sample_pairs (Rng.split rng) ~n ~count:500 in

  C.subsection "Thm 2.1 (Basic) on grid10x10: crashed nodes + message drop + dead links";
  sweep (P.basic sp (Ron_routing.Basic.build sp ~delta:0.25)) pairs;
  C.note "Detours re-aim the packet at another zooming level's intermediate";
  C.note "target; delivery degrades gracefully while stretch inflates mildly.";

  C.subsection "Thm 4.1 (Labelled) on grid10x10: same fault axis";
  sweep (P.labelled sp (Ron_routing.Labelled.build sp ~delta:0.25)) pairs;
  C.note "Fallbacks are the next-best neighbors by labeled estimate, so a dead";
  C.note "primary hop costs one re-ranking, not the query.";

  C.subsection "Thm 4.2 (Two-mode) on grid8x8: same fault axis (sequential routes)";
  let idx8 = Indexed.create (Generators.grid2d 8 8) in
  let tm = Ron_routing.Two_mode.build idx8 ~delta:0.125 in
  sweep (P.two_mode idx8 tm) (C.sample_pairs (Rng.split rng) ~n:(Indexed.size idx8) ~count:300);
  C.note "M2 directories offer natural redundancy: any member of a scale-i";
  C.note "directory (i >= 2) can stand in for a crashed owner.";

  C.subsection "Meridian closest-node queries under the same fault axis";
  let idxm, t, targets, starts = P.meridian_instance rng in
  C.header
    [
      C.cell ~w:6 "rate"; C.cell ~w:8 "queries"; C.cell ~w:11 "exact hits";
      C.cell ~w:12 "worst ratio"; C.cell ~w:10 "probes mn"; C.cell ~w:9 "faults";
    ];
  List.iter
    (fun rate ->
      let l = P.closest ~fault:(fault_for ~n:(Indexed.size idxm) rate) idxm t ~starts targets in
      C.row
        [
          C.cell_float ~w:6 ~prec:2 rate;
          C.cell_int ~w:8 l.P.total;
          C.cell ~w:11 (Printf.sprintf "%d/%d" l.P.exact l.P.total);
          C.cell_float ~w:12 l.P.worst_ratio;
          C.cell_float ~w:10 ~prec:1 (float_of_int l.P.probes /. float_of_int (max 1 l.P.total));
          C.cell_int ~w:9 l.P.injected;
        ])
    rates;
  C.note "Invisible (crashed/unreachable/dropped) ring members are skipped and the";
  C.note "walk advances through the rest of the ring — the query settles on a";
  C.note "slightly worse member instead of failing: rings are their own fallback."
