(* rings-of-neighbors command-line driver.

   Subcommands (cmdliner):
     estimate    -- build a (0,delta)-triangulation / Thm 3.4 labels on a
                    generated metric and estimate sampled pairs
     route       -- run a routing scheme on a generated graph/metric
     fault       -- route under deterministic fault injection
     churn       -- route under seeded joins/leaves with ring repair
     smallworld  -- run small-world lookups
     inspect     -- print substrate facts about a generated metric
     serve       -- serve batched queries from a frozen snapshot
     experiment  -- run one of the named reproduction experiments
     check       -- validate a trace, telemetry or exposition file
     report      -- summarize a trace, telemetry series or SLO verdict
     diff        -- compare two bench reports and flag regressions

   Every construction subcommand takes the shared observability flags of
   Cli_obs; the read-side ones live in Read_cmds. *)

open Cmdliner

module Rng = Ron_util.Rng
module Metric = Ron_metric.Metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Doubling = Ron_metric.Doubling
module Scheme = Ron_routing.Scheme
module Counter = Ron_obs.Counter
module Probe = Ron_obs.Probe
module Flight = Ron_obs.Flight
module Slo = Ron_obs.Slo

let ( let* ) = Result.bind

(* A validation error is a user error: the message on stderr, exit 2. *)
let user_error = function
  | Ok code -> code
  | Error e ->
    prerr_endline e;
    2

(* An enumerated flag: a bad value is a cmdliner usage error (exit 124)
   that lists the valid ones. *)
let enum_arg names alts ~default ~docv ~doc =
  Arg.(
    value
    & opt (enum alts) default
    & info names ~docv ~doc:(Printf.sprintf "%s: %s." doc (doc_alts_enum alts)))

let keys table = List.map (fun (k, _) -> (k, k)) table

(* Every construction subcommand runs under the shared observability
   flags; [run] is the subcommand's own term. *)
let obs_cmd name ~doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const Cli_obs.with_obs $ Cli_obs.term $ run)

(* ------------------------------------------------------ metric selection *)

let grid_side n = max 2 (int_of_float (sqrt (float_of_int n)))

let metric_families =
  [
    ("cloud", fun rng n -> Generators.random_cloud rng ~n ~dim:2);
    ("cloud3d", fun rng n -> Generators.random_cloud rng ~n ~dim:3);
    ("grid", fun _ n -> Generators.grid2d (grid_side n) (grid_side n));
    ("expline", fun _ n -> Generators.exponential_line (min n 48));
    ( "expclusters",
      fun rng n ->
        let clusters = max 2 (n / 16) in
        Generators.exponential_clusters rng ~clusters ~per_cluster:(max 1 (n / clusters))
          ~base:16.0 );
    ( "latency",
      fun rng n ->
        Generators.clustered_latency rng ~clusters:(max 2 (n / 40)) ~per_cluster:40 ~spread:30.0
          ~access:6.0 );
    ("ring", fun _ n -> Metric.normalize (Generators.ring n));
    ("line", fun _ n -> Metric.normalize (Generators.uniform_line n));
  ]

let make_metric family n seed = List.assoc family metric_families (Rng.create seed) n

let metric_substrate family n seed =
  let idx = Indexed.create (make_metric family n seed) in
  (idx, Indexed.size idx, Indexed.dist idx)

(* The graph behind the graph-routing schemes: grid and expline have
   their own generators, every other family is a random geometric graph. *)
let make_graph family n seed =
  let g =
    match family with
    | "grid" -> Ron_graph.Graph_gen.grid (grid_side n) (grid_side n)
    | "expline" -> Ron_graph.Graph_gen.exponential_line_graph (min n 40)
    | _ ->
      Ron_graph.Graph_gen.random_geometric (Rng.create seed) ~n
        ~radius:(2.0 /. sqrt (float_of_int n))
  in
  let sp = Ron_graph.Sp_metric.create g in
  (sp, Ron_graph.Graph.size g, Ron_graph.Sp_metric.dist sp)

let max_bits = Array.fold_left max 0

let metric_arg =
  enum_arg [ "m"; "metric" ] (keys metric_families) ~default:"cloud" ~docv:"FAMILY"
    ~doc:"Metric family"

let n_arg = Arg.(value & opt int 128 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
let seed_arg = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let delta_arg =
  Arg.(value & opt float 0.25 & info [ "d"; "delta" ] ~docv:"DELTA" ~doc:"Accuracy parameter.")

let pairs_arg =
  Arg.(value & opt int 500 & info [ "p"; "pairs" ] ~docv:"PAIRS" ~doc:"Number of sampled pairs.")

(* ------------------------------------------------ SLO monitor and flight *)

type slo_flags = {
  slo : string option;
  slo_out : string option;
  slo_window : int;
  flight : int;
  flight_trace_every : int;
}

let slo_flags_term =
  let slo =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Serving objectives, e.g. $(b,p99<=2us,delivery>=0.999): evaluate rolling query \
             windows against the spec and report the per-window error-budget burn rate.")
  in
  let slo_out =
    Cli_obs.file_arg "slo-out"
      "Write the machine-readable SLO verdict (ron-slo/1 JSON, flight-recorder exemplars \
       embedded) to $(docv). Requires $(b,--slo)."
  in
  let slo_window =
    Arg.(
      value & opt int 2000
      & info [ "slo-window" ] ~docv:"Q" ~doc:"Queries per SLO evaluation window (default 2000).")
  in
  let flight =
    Arg.(
      value & opt int 0
      & info [ "flight" ] ~docv:"K"
          ~doc:
            "Flight recorder: retain the $(docv) slowest queries of every recorder window with \
             full context (0, the default, disables the recorder).")
  in
  let flight_trace_every =
    Arg.(
      value & opt int 32
      & info [ "flight-trace-every" ] ~docv:"N"
          ~doc:
            "Capture the per-hop trace for one in $(docv) deterministically sampled queries \
             (default 32; 0 disables trace capture).")
  in
  Term.(
    const (fun slo slo_out slo_window flight flight_trace_every ->
        { slo; slo_out; slo_window; flight; flight_trace_every })
    $ slo $ slo_out $ slo_window $ flight $ flight_trace_every)

(* Validate the SLO/flight flag set and build the monitor and recorder. *)
let make_observers o =
  if o.slo_window < 1 then Error "--slo-window must be >= 1"
  else if o.flight < 0 then Error "--flight must be >= 0"
  else if o.flight_trace_every < 0 then Error "--flight-trace-every must be >= 0"
  else if o.slo_out <> None && o.slo = None then Error "--slo-out requires --slo"
  else
    let* () = Cli_obs.check_writable "--slo-out" o.slo_out in
    let flight_rec =
      if o.flight > 0 then
        Some (Flight.create ~per_window:o.flight ~trace_every:o.flight_trace_every ())
      else None
    in
    match o.slo with
    | None -> Ok (None, flight_rec)
    | Some spec -> (
      match Slo.parse spec with
      | Error e -> Error (Printf.sprintf "--slo %S: %s" spec e)
      | Ok objs -> Ok (Some (Slo.create ~window:o.slo_window objs), flight_rec))

(* The flight and SLO summary lines and the --slo-out verdict. Only a
   frozen-scheme recorder captures per-hop traces, so only serve counts
   them ([traced]). *)
let report_observers ~traced o (slo_mon, flight_rec) =
  Option.iter Slo.finish slo_mon;
  Option.iter
    (fun fr ->
      let ex = Flight.exemplar_count fr in
      if !Probe.on then Probe.flight_exemplar_level ex;
      let with_trace (_, es) = List.filter (fun x -> x.Flight.x_trace <> None) es in
      Printf.printf "flight recorded=%d exemplars=%d%s\n" (Flight.recorded fr) ex
        (if traced then
           Printf.sprintf " traced=%d" (List.length (List.concat_map with_trace (Flight.dump fr)))
         else ""))
    flight_rec;
  Option.iter
    (fun s ->
      Printf.printf "slo %s: windows=%d violated=%d max_burn=%.3g ok=%b\n" (Slo.spec s)
        (Slo.windows_closed s) (Slo.violated_windows s) (Slo.max_burn s) (Slo.ok s);
      Option.iter
        (fun file ->
          let flight = Option.map Flight.to_json flight_rec in
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Ron_obs.Json.to_string (Slo.to_json ?flight s))))
        o.slo_out)
    slo_mon

(* Snapshot named counters; [print_deltas] later prints how far each moved. *)
let counters_now named = List.map (fun (name, c) -> (name, c, Counter.value c)) named

let print_deltas label base =
  Printf.printf "  %s:" label;
  List.iter (fun (name, c, v0) -> Printf.printf " %s %d" name (Counter.value c - v0)) base;
  print_newline ()

(* -------------------------------------------------------------- estimate *)

let run_estimate family n seed delta pairs () =
  let idx = Indexed.create (make_metric family n seed) in
  let n = Indexed.size idx in
  Printf.printf "metric=%s n=%d log2(aspect)=%d\n" family n (Indexed.log2_aspect_ratio idx);
  let tri = Ron_labeling.Triangulation.build idx ~delta in
  let dls = Ron_labeling.Dls.build tri in
  Printf.printf "triangulation order=%d; Thm 3.4 max label = %d bits\n"
    (Ron_labeling.Triangulation.order tri)
    (Ron_labeling.Dls.max_label_bits dls);
  let rng = Rng.create (seed + 1) in
  let worst_tri = ref 1.0 and worst_dls = ref 1.0 in
  for _ = 1 to pairs do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let d = Indexed.dist idx u v in
      let (_, hi) = Ron_labeling.Triangulation.estimate tri u v in
      let e = Ron_labeling.Dls.estimate (Ron_labeling.Dls.label dls u) (Ron_labeling.Dls.label dls v) in
      worst_tri := Float.max !worst_tri (hi /. d);
      worst_dls := Float.max !worst_dls (e /. d)
    end
  done;
  Printf.printf "worst overestimate on %d pairs: triangulation %.4f, labels-only %.4f (bound %.4f)\n"
    pairs !worst_tri !worst_dls
    ((1.0 +. (2.0 *. delta)) *. (1.0 +. (delta /. 8.0)));
  0

let estimate_cmd =
  obs_cmd "estimate" ~doc:"Distance estimation: Theorem 3.2 triangulation + Theorem 3.4 labels."
    Term.(const run_estimate $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg)

(* ----------------------------------------------------------------- route *)

let route_scheme_arg =
  enum_arg [ "scheme" ]
    [ ("thm21", `Thm21); ("thm41", `Thm41); ("metric", `Metric); ("thm42", `Thm42); ("trivial", `Trivial) ]
    ~default:`Thm21 ~docv:"SCHEME"
    ~doc:
      "Routing scheme — thm21 and thm41 on graphs, metric (Sec 4.1) and thm42 (two-mode) on \
       metrics, trivial (full tables)"

let run_route family n seed delta pairs scheme () =
  let report ?parallel name route dist max_table header n =
    let prs = Ron_experiments.Exp_common.sample_pairs (Rng.create (seed + 2)) ~n ~count:pairs in
    let q = Ron_experiments.Exp_common.collect_routes ?parallel ~route ~dist prs in
    Printf.printf "%s: table<=%d bits, header<=%d bits\n  %s\n  %s\n" name max_table header
      (Ron_experiments.Exp_common.pp_quality q)
      (Ron_experiments.Exp_common.pp_observed q)
  in
  (match scheme with
  | `Metric ->
    let idx, nn, dist = metric_substrate family n seed in
    let s = Ron_routing.On_metric.build idx ~delta in
    report "Thm 2.1 on metric"
      (fun u v -> Ron_routing.On_metric.route s ~src:u ~dst:v)
      dist
      (max_bits (Ron_routing.On_metric.table_bits s))
      (Ron_routing.On_metric.header_bits s) nn
  | `Thm42 ->
    let idx, nn, dist = metric_substrate family n seed in
    let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
    (* Two_mode.route counts mode switches in shared state: sequential. *)
    report ~parallel:false "Thm 4.2 two-mode"
      (fun u v -> Ron_routing.Two_mode.route s ~src:u ~dst:v)
      dist
      (max_bits (Ron_routing.Two_mode.table_bits_m1 s))
      (Ron_routing.Two_mode.header_bits s) nn;
    Printf.printf "  M2 switches: %d\n" (Ron_routing.Two_mode.mode2_switches s)
  | `Thm21 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
    report "Thm 2.1" (fun u v -> Ron_routing.Basic.route s ~src:u ~dst:v) dist
      (max_bits (Ron_routing.Basic.table_bits s))
      (Ron_routing.Basic.header_bits s) nn
  | `Thm41 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Labelled.build sp ~delta in
    report "Thm 4.1" (fun u v -> Ron_routing.Labelled.route s ~src:u ~dst:v) dist
      (max_bits (Ron_routing.Labelled.table_bits s))
      (Ron_routing.Labelled.header_bits s) nn
  | `Trivial ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Full_table.build sp in
    report "stretch-1 trivial" (fun u v -> Ron_routing.Full_table.route s ~src:u ~dst:v) dist
      (max_bits (Ron_routing.Full_table.table_bits s))
      (Ron_routing.Full_table.header_bits s) nn);
  0

let route_cmd =
  obs_cmd "route" ~doc:"Compact (1+delta)-stretch routing (Theorems 2.1, 4.1, 4.2; Section 4.1)."
    Term.(
      const run_route $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg $ route_scheme_arg)

(* ----------------------------------------------------------------- fault *)

(* The schemes with a wrapped (fault- and churn-aware) router. *)
let wrapped_scheme_arg =
  enum_arg [ "scheme" ]
    [ ("thm21", `Thm21); ("thm41", `Thm41); ("thm42", `Thm42) ]
    ~default:`Thm21 ~docv:"SCHEME" ~doc:"Routing scheme"

let crash_arg =
  Arg.(
    value & opt float 0.05
    & info [ "crash" ] ~docv:"FRAC" ~doc:"Fraction of nodes crashed (seed-chosen, in [0,1)).")

let drop_arg =
  Arg.(
    value & opt float 0.01
    & info [ "drop" ] ~docv:"RATE" ~doc:"Per-hop Bernoulli message-drop rate (in [0,1)).")

let dead_links_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dead-links" ] ~docv:"FRAC" ~doc:"Fraction of (undirected) links dead (in [0,1)).")

let fault_seed_arg =
  Arg.(
    value & opt int 4242
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed of the fault model's dedicated random stream (independent of --seed).")

let run_fault family n seed delta pairs scheme crash drop dead fseed () =
  let module Fault = Ron_fault.Fault in
  let module C = Ron_experiments.Exp_common in
  let report ?parallel name route_wrapped dist nn =
    let fault = Fault.make ~seed:fseed ~crash_fraction:crash ~drop_rate:drop
        ~dead_link_fraction:dead ~n:nn ()
    in
    let prs =
      List.filter
        (fun (u, v) -> not (Fault.crashed fault u || Fault.crashed fault v))
        (C.sample_pairs (Rng.create (seed + 2)) ~n:nn ~count:pairs)
    in
    let base =
      counters_now
        [
          ("drops injected", Probe.fault_drops);
          ("crashed hits", Probe.fault_crashed_hits);
          ("dead-link hits", Probe.fault_dead_links);
          ("retries", Probe.fault_retries);
          ("detours", Probe.fault_detours);
        ]
    in
    let q =
      C.collect_routes_keyed ?parallel
        ~route:(fun ~query u v -> route_wrapped (Fault.wrapper fault ~query) u v)
        ~dist prs
    in
    Printf.printf "%s under faults (%s)\n  %s\n  %s\n" name (Fault.describe fault)
      (C.pp_quality q) (C.pp_observed q);
    let delivered = q.C.queries - q.C.failures in
    Printf.printf "  delivery rate %.3f (%d/%d live pairs)\n"
      (float_of_int delivered /. float_of_int (max 1 q.C.queries))
      delivered q.C.queries;
    print_deltas "fault events" base
  in
  (match scheme with
  | `Thm42 ->
    let idx, nn, dist = metric_substrate family n seed in
    let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
    (* Two_mode.route counts mode switches in shared state: sequential. *)
    report ~parallel:false "Thm 4.2 two-mode"
      (fun w u v -> Ron_routing.Two_mode.route_wrapped w s ~src:u ~dst:v)
      dist nn
  | `Thm21 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
    report "Thm 2.1" (fun w u v -> Ron_routing.Basic.route_wrapped w s ~src:u ~dst:v) dist nn
  | `Thm41 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Labelled.build sp ~delta in
    report "Thm 4.1" (fun w u v -> Ron_routing.Labelled.route_wrapped w s ~src:u ~dst:v) dist nn);
  0

let fault_cmd =
  obs_cmd "fault"
    ~doc:
      "Route under deterministic fault injection (crashed nodes, message drop, dead links) with \
       graceful-degradation fallbacks."
    Term.(
      const run_fault $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg $ wrapped_scheme_arg
      $ crash_arg $ drop_arg $ dead_links_arg $ fault_seed_arg)

(* ----------------------------------------------------------------- churn *)

let join_rate_arg =
  Arg.(
    value & opt float 0.05
    & info [ "join-rate" ] ~docv:"RATE"
        ~doc:"Per-slot probability that a departed node rejoins.")

let leave_rate_arg =
  Arg.(
    value & opt float 0.05
    & info [ "leave-rate" ] ~docv:"RATE"
        ~doc:"Per-slot probability that a live node leaves.")

let churn_seed_arg =
  Arg.(
    value & opt int 9191
    & info [ "churn-seed" ] ~docv:"SEED"
        ~doc:"Seed of the churn schedule's dedicated random stream (independent of --seed).")

let slots_arg =
  Arg.(
    value & opt int 120
    & info [ "slots" ] ~docv:"SLOTS" ~doc:"Event slots in the churn schedule.")

let run_churn family n seed delta pairs scheme jrate lrate cseed slots crash drop dead fseed
    flags () =
  let module Churn = Ron_churn.Churn in
  let module Fault = Ron_fault.Fault in
  let module C = Ron_experiments.Exp_common in
  user_error
  @@
  let* ((slo_mon, flight_rec) as observers) = make_observers flags in
  let report ?parallel name ~tag ~make_repair route_wrapped dist nn =
    let sched =
      Churn.Schedule.make ~seed:cseed ~n:nn ~slots ~join_rate:jrate ~leave_rate:lrate ()
    in
    let st = Churn.state_of_schedule sched in
    let on_leave, on_join, backlog, stale_after = make_repair st in
    let was_on = !Probe.on in
    Probe.on := true;
    let summary =
      Fun.protect
        ~finally:(fun () -> Probe.on := was_on)
        (fun () -> Churn.Driver.apply sched st ~on_leave ~on_join ?backlog ())
    in
    (* Composable with the fault axis: churn detours innermost, fault
       injection on top. All-zero fault rates compose with the identity. *)
    let fault =
      if crash = 0.0 && drop = 0.0 && dead = 0.0 then None
      else
        Some
          (Fault.make ~seed:fseed ~crash_fraction:crash ~drop_rate:drop
             ~dead_link_fraction:dead ~n:nn ())
    in
    let prs =
      List.filter
        (fun (u, v) ->
          Churn.is_live st u && Churn.is_live st v
          && match fault with
             | None -> true
             | Some f -> not (Fault.crashed f u || Fault.crashed f v))
        (C.sample_pairs (Rng.create (seed + 2)) ~n:nn ~count:pairs)
    in
    let cw = Churn.wrapper st in
    let wrapper_for query =
      match fault with
      | None -> cw
      | Some f -> Scheme.compose (Fault.wrapper f ~query) cw
    in
    let base =
      counters_now [ ("stale hits", Probe.churn_stale_hits); ("detours", Probe.churn_detours) ]
    in
    let q =
      C.collect_routes_keyed ?parallel
        ~route:(fun ~query u v -> route_wrapped (wrapper_for query) u v)
        ~dist prs
    in
    Printf.printf "%s under churn (%s)\n" name (Churn.Schedule.describe sched);
    (match fault with
    | Some f -> Printf.printf "  composed with %s\n" (Fault.describe f)
    | None -> ());
    Printf.printf "  %s\n  %s\n" (C.pp_quality q) (C.pp_observed q);
    let delivered = q.C.queries - q.C.failures in
    Printf.printf "  delivery rate %.3f (%d/%d live pairs), live nodes %d/%d\n"
      (float_of_int delivered /. float_of_int (max 1 q.C.queries))
      delivered q.C.queries (Churn.live_count st) nn;
    let ev = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
    Printf.printf "  repair: %d updates, %d refills, %d relabels over %d events (%.1f/ev), stale after %d\n"
      summary.Churn.Driver.cost.Churn.updates summary.Churn.Driver.cost.Churn.refills
      summary.Churn.Driver.cost.Churn.relabels ev
      (float_of_int summary.Churn.Driver.cost.Churn.updates /. float_of_int (max 1 ev))
      (stale_after ());
    print_deltas "churn events" base;
    (* Observed pass for the SLO monitor / flight recorder: sequential and
       wall-clocked — the monitor is single-feeder state, and the live
       churn schemes have no frozen scratch, so exemplars carry full
       context but no per-hop trace. *)
    match (slo_mon, flight_rec) with
    | None, None -> ()
    | _ ->
      List.iteri
        (fun i (u, v) ->
          let t0 = Unix.gettimeofday () in
          let r = route_wrapped (wrapper_for i) u v in
          let lat_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          (match flight_rec with
          | Some fr ->
            let outcome =
              match r.Scheme.outcome with
              | Scheme.Delivered -> 0
              | Scheme.Truncated -> 1
              | Scheme.Self_forward -> 2
              | Scheme.Cycled -> 3
              | Scheme.Dropped -> 4
            in
            Flight.record fr ~qid:i ~scheme:tag ~kind:0 ~src:u ~dst:v ~outcome
              ~hops:r.Scheme.hops ~lat:lat_ns ~trace:[||] ~trace_len:(-1)
          | None -> ());
          match slo_mon with
          | Some s -> Slo.observe s ~lat:(float_of_int lat_ns) ~ok:r.Scheme.delivered
          | None -> ())
        prs
  in
  (match scheme with
  | `Thm42 ->
    let idx, nn, dist = metric_substrate family n seed in
    let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
    let x = Ron_routing.Two_mode.export s in
    let rows =
      Array.init nn (fun u ->
          let dirs = ref [] in
          for i = Array.length x.Ron_routing.Two_mode.x_hub_g - 1 downto 0 do
            let g = x.Ron_routing.Two_mode.x_hub_g.(i).(u) in
            if g >= 0 then
              dirs := x.Ron_routing.Two_mode.x_dir_members.(g) :: !dirs
          done;
          Array.concat (x.Ron_routing.Two_mode.x_hub_ptr.(u) :: !dirs))
    in
    let scales = Array.length x.Ron_routing.Two_mode.x_hub_g in
    report ~parallel:false "Thm 4.2 two-mode" ~tag:3
      ~make_repair:(fun st ->
        let ov = Churn.Overlay.create st rows ~relabel_cost:(fun _ -> scales) in
        ( (fun v -> Churn.Overlay.leave ov v),
          (fun v -> Churn.Overlay.join ov v),
          Some (fun () -> Churn.Overlay.backlog ov),
          fun () -> Churn.Overlay.stale_entries ov ))
      (fun w u v -> Ron_routing.Two_mode.route_wrapped w s ~src:u ~dst:v)
      dist nn
  | `Thm21 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
    report "Thm 2.1" ~tag:1
      ~make_repair:(fun st ->
        let rr =
          Churn.Ring_repair.create st (Ron_routing.Basic.substrate s)
            (Ron_routing.Basic.rings_collection s)
        in
        ( (fun v -> Churn.Ring_repair.leave rr v),
          (fun v -> Churn.Ring_repair.join rr v),
          None,
          fun () -> Churn.Ring_repair.stale_members rr ))
      (fun w u v -> Ron_routing.Basic.route_wrapped w s ~src:u ~dst:v)
      dist nn
  | `Thm41 ->
    let sp, nn, dist = make_graph family n seed in
    let s = Ron_routing.Labelled.build sp ~delta in
    let rows = Array.init nn (fun u -> Ron_routing.Labelled.neighbors s u) in
    report "Thm 4.1" ~tag:2
      ~make_repair:(fun st ->
        let ov =
          Churn.Overlay.create st rows
            ~relabel_cost:(fun v -> Array.length rows.(v))
        in
        ( (fun v -> Churn.Overlay.leave ov v),
          (fun v -> Churn.Overlay.join ov v),
          Some (fun () -> Churn.Overlay.backlog ov),
          fun () -> Churn.Overlay.stale_entries ov ))
      (fun w u v -> Ron_routing.Labelled.route_wrapped w s ~src:u ~dst:v)
      dist nn);
  report_observers ~traced:false flags observers;
  Ok 0

let churn_cmd =
  obs_cmd "churn"
    ~doc:
      "Route under dynamic membership (seeded joins/leaves) with incremental ring repair; \
       composable with the fault-injection flags."
    Term.(
      const run_churn $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg
      $ wrapped_scheme_arg $ join_rate_arg $ leave_rate_arg $ churn_seed_arg $ slots_arg
      $ crash_arg $ drop_arg $ dead_links_arg $ fault_seed_arg $ slo_flags_term)

(* ------------------------------------------------------------ smallworld *)

(* Each model builds from (index, doubling measure, rng) to a router and
   its (max, mean) out-degree. *)
let sw_models =
  let module Sw = Ron_smallworld in
  [
    ( "a",
      fun idx mu rng ->
        let m = Sw.Doubling_a.build idx mu rng in
        ((fun u v -> Sw.Doubling_a.route m ~src:u ~dst:v ~max_hops:300), Sw.Doubling_a.out_degree m) );
    ( "b",
      fun idx mu rng ->
        let m = Sw.Doubling_b.build idx mu rng in
        ((fun u v -> Sw.Doubling_b.route m ~src:u ~dst:v ~max_hops:300), Sw.Doubling_b.out_degree m) );
    ( "structures",
      fun idx _ rng ->
        let m = Sw.Structures.build idx rng in
        ((fun u v -> Sw.Structures.route m ~src:u ~dst:v ~max_hops:300), Sw.Structures.out_degree m) );
  ]

let model_arg =
  enum_arg [ "model" ] (keys sw_models) ~default:"a" ~docv:"MODEL"
    ~doc:"Small-world model — a (Thm 5.2a), b (Thm 5.2b) or structures"

let run_smallworld family n seed pairs model () =
  let idx = Indexed.create (make_metric family n seed) in
  let nn = Indexed.size idx in
  let mu = Measure.create idx (Net.Hierarchy.create idx) in
  let rng = Rng.create (seed + 3) in
  let route, (deg_max, deg_mean) = List.assoc model sw_models idx mu (Rng.split rng) in
  Printf.printf "model=%s n=%d out-degree max=%d mean=%.1f\n" model nn deg_max deg_mean;
  let fails = ref 0 and hmax = ref 0 and hsum = ref 0 and ok = ref 0 and ng = ref 0 in
  for _ = 1 to pairs do
    let u = Rng.int rng nn and v = Rng.int rng nn in
    if u <> v then begin
      let r = route u v in
      if r.Ron_smallworld.Sw_model.delivered then begin
        incr ok;
        hmax := max !hmax r.Ron_smallworld.Sw_model.hops;
        hsum := !hsum + r.Ron_smallworld.Sw_model.hops;
        ng := !ng + r.Ron_smallworld.Sw_model.nongreedy_hops
      end
      else incr fails
    end
  done;
  Printf.printf "lookups: mean %.2f hops, max %d, nongreedy %d, failed %d\n"
    (float_of_int !hsum /. float_of_int (max 1 !ok))
    !hmax !ng !fails;
  0

let smallworld_cmd =
  obs_cmd "smallworld" ~doc:"Searchable small worlds on doubling metrics (Theorem 5.2, Section 5.2)."
    Term.(const run_smallworld $ metric_arg $ n_arg $ seed_arg $ pairs_arg $ model_arg)

(* --------------------------------------------------------------- inspect *)

let run_inspect family n seed () =
  let m = make_metric family n seed in
  (match Metric.check m with
  | Ok () -> ()
  | Error e -> Printf.printf "WARNING: metric check failed: %s\n" e);
  let idx = Indexed.create m in
  let rng = Rng.create (seed + 4) in
  let alpha = Doubling.dimension_estimate idx rng in
  let hier = Net.Hierarchy.create idx in
  let mu = Measure.create idx hier in
  Printf.printf "metric %s: n=%d\n" (Metric.name m) (Indexed.size idx);
  Printf.printf "  diameter %.3g, min distance %.3g, log2(aspect) %d\n" (Indexed.diameter idx)
    (Indexed.min_distance idx) (Indexed.log2_aspect_ratio idx);
  Printf.printf "  empirical doubling dimension ~ %.2f (Lemma 1.2 floor: %.2f)\n" alpha
    (Ron_util.Bits.flog2 (float_of_int (Indexed.size idx))
    /. (1.0 +. Ron_util.Bits.flog2 (Float.max 2.0 (Indexed.aspect_ratio idx))));
  Printf.printf "  net hierarchy: %d levels; level sizes:" (Net.Hierarchy.jmax hier + 1);
  for j = 0 to Net.Hierarchy.jmax hier do
    Printf.printf " %d" (Array.length (Net.Hierarchy.level hier j))
  done;
  Printf.printf "\n  doubling measure: constant ~ %.1f\n"
    (Measure.doubling_constant_estimate mu idx rng);
  0

let inspect_cmd =
  obs_cmd "inspect" ~doc:"Print substrate facts (dimension, nets, doubling measure) about a metric."
    Term.(const run_inspect $ metric_arg $ n_arg $ seed_arg)

(* ----------------------------------------------------------------- serve *)

let serve_scheme_arg =
  enum_arg [ "scheme" ]
    (List.map (fun k -> (k, k)) Ron_serve.Fixture.names)
    ~default:"basic" ~docv:"SCHEME" ~doc:"Scheme to serve"

let snapshot_arg =
  Cli_obs.file_arg "snapshot" "Freeze the built scheme into an off-heap snapshot at $(docv)."

let load_arg =
  Cli_obs.file_arg "load" "Serve from an existing snapshot instead of building (cold start)."

let queries_arg =
  Arg.(value & opt int 100_000 & info [ "queries" ] ~docv:"Q" ~doc:"Queries to serve.")

let batch_arg =
  Arg.(
    value
    & opt int Ron_serve.Loop.default_batch
    & info [ "batch" ] ~docv:"B" ~doc:"Batch size sharded across worker domains.")

let zipf_arg =
  Arg.(
    value & opt float 1.1
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the target-popularity skew.")

let mix_arg =
  Arg.(
    value & opt string "0.6,0.3,0.1"
    & info [ "mix" ] ~docv:"R,D,L"
        ~doc:
          "Traffic mix as comma-separated route,dist,locate weights (normalized; each scheme \
           collapses unsupported kinds onto its native operation).")

let parse_mix s =
  match String.split_on_char ',' s with
  | [ a; b; c ] -> (
    match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
    | Some r, Some d, Some l
      when Float.is_finite r && Float.is_finite d && Float.is_finite l
           && r >= 0.0 && d >= 0.0 && l >= 0.0 && r +. d +. l > 0.0 ->
      let t = r +. d +. l in
      Ok (r /. t, d /. t)
    | _ ->
      Error
        (Printf.sprintf
           "--mix %S: weights must be finite and non-negative with a positive sum" s))
  | _ -> Error "--mix expects three comma-separated weights, e.g. 0.6,0.3,0.1"

let run_serve scheme n seed snapshot load queries batch zipf mix flags () =
  let module Server = Ron_serve.Server in
  let module Loop = Ron_serve.Loop in
  user_error
  @@
  let* route_frac, dist_frac = parse_mix mix in
  let* () =
    if not (Float.is_finite zipf && zipf > 0.0) then
      Error (Printf.sprintf "--zipf %g: the exponent must be finite and positive" zipf)
    else if queries < 0 || batch < 0 then Error "--queries and --batch must be non-negative"
    else Ok ()
  in
  let* ((slo_mon, flight_rec) as observers) = make_observers flags in
  let* () = Cli_obs.check_writable "--snapshot" snapshot in
  let* t =
    match load with
    | Some file -> Result.map_error (fun e -> "--load: " ^ e) (Server.load file)
    | None ->
      let t = Ron_serve.Fixture.build ~scheme ~n ~seed in
      Option.iter (Server.save t) snapshot;
      Ok t
  in
  let nodes = Server.size t in
  Printf.printf "serve scheme=%s nodes=%d snapshot=%d bytes (%.1f bytes/node)\n"
    (Server.scheme_name t) nodes (Server.byte_size t)
    (float_of_int (Server.byte_size t) /. float_of_int (max 1 nodes));
  if queries = 0 || batch = 0 then begin
    (* Nothing to serve: an empty-but-valid report, not a spin or a crash. *)
    Printf.printf "queries=0 batch=%d elapsed=0.000s qps=0 digest=0\n" batch;
    Printf.printf "latency p50=0ns p99=0ns p999=0ns\n"
  end
  else begin
    let work = Loop.prepare t ~seed ~queries ~zipf_s:zipf ~route_frac ~dist_frac in
    let res = Loop.results_create queries in
    let t0 = Unix.gettimeofday () in
    (match observers with
    | None, None -> Loop.run ~batch t work res
    | _ -> Loop.run_observed ~batch ~wall:true ?flight:flight_rec ?slo:slo_mon t work res);
    let dt = Unix.gettimeofday () -. t0 in
    let qps = float_of_int queries /. Float.max dt 1e-9 in
    Printf.printf "queries=%d batch=%d elapsed=%.3fs qps=%.0f digest=%x\n" queries batch dt qps
      (Loop.digest res);
    let hist = Ron_obs.Histogram.Bucketed.make "serve.latency_ns" in
    Loop.measure_latency ~limit:(min queries 20_000) t work res hist;
    let q p = Ron_obs.Histogram.Bucketed.quantile hist p in
    Printf.printf "latency p50=%.0fns p99=%.0fns p999=%.0fns\n" (q 0.5) (q 0.99) (q 0.999);
    report_observers ~traced:true flags observers
  end;
  Ok 0

let serve_cmd =
  obs_cmd "serve"
    ~doc:"Serve batched distance/route/locate queries from a frozen off-heap scheme snapshot."
    Term.(
      const run_serve $ serve_scheme_arg $ n_arg $ seed_arg $ snapshot_arg $ load_arg
      $ queries_arg $ batch_arg $ zipf_arg $ mix_arg $ slo_flags_term)

(* ------------------------------------------------------------ experiment *)

let experiments =
  let module E = Ron_experiments in
  [
    ("t1", E.Exp_t1.run); ("t2", E.Exp_t2.run); ("t3", E.Exp_t3.run);
    ("e21", E.Exp_e21.run); ("e32", E.Exp_e32.run); ("e34", E.Exp_e34.run);
    ("e41", E.Exp_e41.run); ("e52a", E.Exp_e52.run_a); ("e52b", E.Exp_e52.run_b);
    ("e54", E.Exp_e54.run); ("e55", E.Exp_e55.run); ("esub", E.Exp_esub.run); ("mer", E.Exp_mer.run);
    ("fig1", E.Exp_fig1.run); ("fault", E.Exp_fault.run); ("scale", E.Exp_scale.run);
    ("churn", E.Exp_churn.run);
  ]

let experiment_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some (enum (keys experiments))) None
      & info [] ~docv:"ID" ~doc:(doc_alts_enum (keys experiments)))
  in
  let run id () =
    List.assoc id experiments ();
    0
  in
  obs_cmd "experiment" ~doc:"Run one reproduction experiment (same ids as bench/main.exe)."
    Term.(const run $ id)

let () =
  let doc = "rings of neighbors: distance estimation and object location (Slivkins, PODC 2005)" in
  let info = Cmd.info "ron" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            estimate_cmd; route_cmd; fault_cmd; churn_cmd; smallworld_cmd; inspect_cmd; serve_cmd;
            experiment_cmd; Read_cmds.check_cmd; Read_cmds.report_cmd; Read_cmds.diff_cmd;
          ]))
