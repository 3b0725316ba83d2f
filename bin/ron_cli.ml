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
module Fault = Ron_fault.Fault
module Churn = Ron_churn.Churn
module C = Ron_experiments.Exp_common
module P = Ron_experiments.Perturbed
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

(* ------------------------------------------------------- checked flags *)

(* Each flag value the constructions would reject is checked here, once,
   before anything is built: a bad value exits 2 naming the flag. *)

let check_n n =
  if n >= 2 then Ok () else Error (Printf.sprintf "-n %d: need at least 2 nodes" n)

(* The delta range a construction accepts, with its name for the error
   message. Schemes that clamp delta take any positive value. *)
let positive = ((fun d -> d > 0.0), "positive")
let labelled_range = ((fun d -> d > 0.0 && d < 2.0 /. 3.0), "in (0, 2/3)")

let check_delta (ok, range) delta =
  if ok delta then Ok () else Error (Printf.sprintf "--delta %g: must be %s" delta range)

(* Fractions and rates: in [0, 1), or in [0, 1] when [closed]. *)
let check_unit ?(closed = false) name v =
  if v >= 0.0 && (v < 1.0 || (closed && v = 1.0)) then Ok ()
  else Error (Printf.sprintf "%s %g: must be in [0, 1%s" name v (if closed then "]" else ")"))

let sample_pairs seed pairs n =
  C.sample_pairs (Rng.create (seed + 2)) ~n ~count:pairs

(* -------------------------------------------------------------- estimate *)

let run_estimate family n seed delta pairs () =
  user_error
  @@
  let* () = check_n n in
  let* () = check_delta ((fun d -> d > 0.0 && d < 0.5), "in (0, 1/2)") delta in
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
  Ok 0

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
  user_error
  @@
  let* () = check_n n in
  let* () =
    match scheme with
    | `Thm41 -> check_delta labelled_range delta
    | `Metric -> check_delta ((fun d -> d > 0.0 && d <= 0.25), "in (0, 1/4]") delta
    | `Trivial -> Ok ()
    | `Thm21 | `Thm42 -> check_delta positive delta
  in
  let report ?parallel name route dist max_table header n =
    let q = C.collect_routes ?parallel ~route ~dist (sample_pairs seed pairs n) in
    Printf.printf "%s: table<=%d bits, header<=%d bits\n  %s\n  %s\n" name max_table header
      (C.pp_quality q) (C.pp_observed q)
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
  Ok 0

let route_cmd =
  obs_cmd "route" ~doc:"Compact (1+delta)-stretch routing (Theorems 2.1, 4.1, 4.2; Section 4.1)."
    Term.(
      const run_route $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg $ route_scheme_arg)

(* ----------------------------------------------------------------- fault *)

(* The schemes with a wrapped (fault- and churn-aware) router, shared by
   the fault and churn subcommands: report title, flight-recorder tag
   (the frozen scheme's, from the serve table), delta range, and the build
   from the metric flags. *)
let wrapped_schemes =
  let on_graph target family n seed delta =
    let sp, _, _ = make_graph family n seed in
    target sp delta
  in
  let tag name = fst (List.find (fun (_, s) -> s = name) Ron_serve.Server.schemes) in
  [
    ( "thm21",
      ( "Thm 2.1", tag "basic", positive,
        on_graph (fun sp delta ->
            P.basic sp (Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25))) ) );
    ( "thm41",
      ( "Thm 4.1", tag "labelled", labelled_range,
        on_graph (fun sp delta -> P.labelled sp (Ron_routing.Labelled.build sp ~delta)) ) );
    ( "thm42",
      ( "Thm 4.2 two-mode", tag "two_mode", positive,
        fun family n seed delta ->
          let idx, _, _ = metric_substrate family n seed in
          P.two_mode idx (Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125)) ) );
  ]

let wrapped_scheme_arg =
  enum_arg [ "scheme" ] (keys wrapped_schemes) ~default:"thm21" ~docv:"SCHEME"
    ~doc:"Routing scheme"

let stream_seed name default what =
  Arg.(
    value & opt int default
    & info [ name ] ~docv:"SEED"
        ~doc:(Printf.sprintf "Seed of the %s's dedicated random stream (independent of --seed)." what))

type fault_flags = { crash : float; drop : float; dead : float; fault_seed : int }

let fault_term =
  let frac name docv default doc = Arg.(value & opt float default & info [ name ] ~docv ~doc) in
  Term.(
    const (fun crash drop dead fault_seed -> { crash; drop; dead; fault_seed })
    $ frac "crash" "FRAC" 0.05 "Fraction of nodes crashed (seed-chosen, in [0,1))."
    $ frac "drop" "RATE" 0.01 "Per-hop Bernoulli message-drop rate (in [0,1))."
    $ frac "dead-links" "FRAC" 0.0 "Fraction of (undirected) links dead (in [0,1))."
    $ stream_seed "fault-seed" 4242 "fault model")

let check_fault f =
  let* () = check_unit "--crash" f.crash in
  let* () = check_unit "--drop" f.drop in
  check_unit "--dead-links" f.dead

let make_fault f n =
  Fault.make ~seed:f.fault_seed ~crash_fraction:f.crash ~drop_rate:f.drop
    ~dead_link_fraction:f.dead ~n ()

(* Check the metric, scheme and fault flags, then build the scheme. *)
let build_wrapped family n seed delta scheme f =
  let title, tag, delta_range, build = List.assoc scheme wrapped_schemes in
  let* () = check_n n in
  let* () = check_delta delta_range delta in
  let* () = check_fault f in
  Ok (title, tag, fun () -> build family n seed delta)

let print_events label events =
  Printf.printf "  %s:" label;
  List.iter (fun ((name, _), d) -> Printf.printf " %s %d" name d) events;
  print_newline ()

let run_fault family n seed delta pairs scheme f () =
  user_error
  @@
  let* title, _, build = build_wrapped family n seed delta scheme f in
  let t = build () in
  let fault = make_fault f t.P.n in
  let o = P.run ~fault t (sample_pairs seed pairs t.P.n) in
  Printf.printf "%s under faults (%s)\n  %s\n  %s\n" title (Fault.describe fault)
    (C.pp_quality o.P.quality) (C.pp_observed o.P.quality);
  Printf.printf "  delivery rate %.3f (%d/%d live pairs)\n" o.P.delivery_rate o.P.delivered
    o.P.quality.C.queries;
  print_events "fault events" o.P.events;
  Ok 0

let fault_cmd =
  obs_cmd "fault"
    ~doc:
      "Route under deterministic fault injection (crashed nodes, message drop, dead links) with \
       graceful-degradation fallbacks."
    Term.(
      const run_fault $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg $ wrapped_scheme_arg
      $ fault_term)

(* ----------------------------------------------------------------- churn *)

type churn_flags = { join_rate : float; leave_rate : float; churn_seed : int; slots : int }

let churn_term =
  let rate name doc = Arg.(value & opt float 0.05 & info [ name ] ~docv:"RATE" ~doc) in
  let slots =
    Arg.(value & opt int 120 & info [ "slots" ] ~docv:"SLOTS" ~doc:"Event slots in the churn schedule.")
  in
  Term.(
    const (fun join_rate leave_rate churn_seed slots -> { join_rate; leave_rate; churn_seed; slots })
    $ rate "join-rate" "Per-slot probability that a departed node rejoins."
    $ rate "leave-rate" "Per-slot probability that a live node leaves."
    $ stream_seed "churn-seed" 9191 "churn schedule" $ slots)

let check_churn c =
  let* () = check_unit ~closed:true "--join-rate" c.join_rate in
  let* () = check_unit ~closed:true "--leave-rate" c.leave_rate in
  if c.join_rate +. c.leave_rate > 1.0 then
    Error
      (Printf.sprintf "--join-rate %g plus --leave-rate %g: the sum must not exceed 1" c.join_rate
         c.leave_rate)
  else if c.slots < 0 then Error (Printf.sprintf "--slots %d: must be non-negative" c.slots)
  else Ok ()

let run_churn family n seed delta pairs scheme c f flags () =
  user_error
  @@
  let* title, tag, build = build_wrapped family n seed delta scheme f in
  let* () = check_churn c in
  let* ((slo_mon, flight_rec) as observers) = make_observers flags in
  let t = build () in
  let sched =
    Churn.Schedule.make ~seed:c.churn_seed ~n:t.P.n ~slots:c.slots ~join_rate:c.join_rate
      ~leave_rate:c.leave_rate ()
  in
  (* All-zero fault rates compose with the identity. *)
  let fault =
    if f.crash = 0.0 && f.drop = 0.0 && f.dead = 0.0 then None else Some (make_fault f t.P.n)
  in
  let o = P.run ?fault ~schedule:sched t (sample_pairs seed pairs t.P.n) in
  let q = o.P.quality and ch = Option.get o.P.churned in
  let summary = ch.P.summary in
  Printf.printf "%s under churn (%s)\n" title (Churn.Schedule.describe sched);
  Option.iter
    (fun f -> Printf.printf "  composed with %s\n" (Fault.describe f))
    fault;
  Printf.printf "  %s\n  %s\n" (C.pp_quality q) (C.pp_observed q);
  Printf.printf "  delivery rate %.3f (%d/%d live pairs), live nodes %d/%d\n" o.P.delivery_rate
    o.P.delivered q.C.queries (Churn.live_count ch.P.state) t.P.n;
  let ev = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
  let cost = summary.Churn.Driver.cost in
  Printf.printf
    "  repair: %d updates, %d refills, %d relabels over %d events (%.1f/ev), stale after %d\n"
    cost.Churn.updates cost.Churn.refills cost.Churn.relabels ev
    (float_of_int cost.Churn.updates /. float_of_int (max 1 ev))
    (ch.P.repair.Churn.Repair.stale ());
  print_events "churn events" o.P.events;
  (* Observed pass for the SLO monitor / flight recorder: sequential and
     wall-clocked — the monitor is single-feeder state, and the live
     churn schemes have no frozen scratch, so exemplars carry full
     context but no per-hop trace. *)
  (match observers with
  | None, None -> ()
  | _ ->
    List.iteri
      (fun i (u, v) ->
        let t0 = Ron_obs.Clock.now_ns () in
        let r = t.P.route_wrapped (o.P.wrapper i) u v in
        let lat_ns = Ron_obs.Clock.now_ns () - t0 in
        (match flight_rec with
        | Some fr ->
          Flight.record fr ~qid:i ~scheme:tag ~kind:0 ~src:u ~dst:v
            ~outcome:(Ron_serve.Server.outcome_code r.Scheme.outcome) ~hops:r.Scheme.hops
            ~lat:lat_ns ~trace:[||] ~trace_len:(-1)
        | None -> ());
        match slo_mon with
        | Some s -> Slo.observe s ~lat:(float_of_int lat_ns) ~ok:r.Scheme.delivered
        | None -> ())
      o.P.pairs);
  report_observers ~traced:false flags observers;
  Ok 0

let churn_cmd =
  obs_cmd "churn"
    ~doc:
      "Route under dynamic membership (seeded joins/leaves) with incremental ring repair; \
       composable with the fault-injection flags."
    Term.(
      const run_churn $ metric_arg $ n_arg $ seed_arg $ delta_arg $ pairs_arg
      $ wrapped_scheme_arg $ churn_term $ fault_term $ slo_flags_term)

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
  user_error
  @@
  let* () = check_n n in
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
  Ok 0

let smallworld_cmd =
  obs_cmd "smallworld" ~doc:"Searchable small worlds on doubling metrics (Theorem 5.2, Section 5.2)."
    Term.(const run_smallworld $ metric_arg $ n_arg $ seed_arg $ pairs_arg $ model_arg)

(* --------------------------------------------------------------- inspect *)

let run_inspect family n seed () =
  user_error
  @@
  let* () = check_n n in
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
  Ok 0

let inspect_cmd =
  obs_cmd "inspect" ~doc:"Print substrate facts (dimension, nets, doubling measure) about a metric."
    Term.(const run_inspect $ metric_arg $ n_arg $ seed_arg)

(* ----------------------------------------------------------------- serve *)

let serve_scheme_arg =
  enum_arg [ "scheme" ]
    (List.map (fun (_, k) -> (k, k)) Ron_serve.Server.schemes)
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
    let t0 = Ron_obs.Clock.now_ns () in
    (match observers with
    | None, None -> Loop.run ~batch t work res
    | _ -> Loop.run_observed ~batch ~wall:true ?flight:flight_rec ?slo:slo_mon t work res);
    let dt = float_of_int (Ron_obs.Clock.now_ns () - t0) /. 1e9 in
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

let experiments = List.map (fun (id, _, run) -> (id, run)) Ron_experiments.Catalog.all

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
