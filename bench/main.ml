(* Benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe            -- run every experiment + micro-benchmarks
     dune exec bench/main.exe t1 e32     -- run selected experiment ids
     dune exec bench/main.exe list       -- list experiment ids
     dune exec bench/main.exe -- --json BENCH.json [--sizes 500,1000,2000]
                                         -- machine-readable perf report
                                            (combinable with experiment ids)
     dune exec bench/main.exe -- --json B.json --scale-only --scale 100000
                                         -- only the near-linear "scale"
                                            section (the CI scale smoke)
     ... --json B.json --telemetry T.jsonl [--telemetry-interval MS]
                                         -- sample runtime telemetry (counter
                                            deltas, gauges, GC, RSS) as JSONL
                                            while the report is measured

   One section is printed per paper artifact (table / figure / theorem); see
   DESIGN.md section 3 for the index and EXPERIMENTS.md for the recorded
   paper-vs-measured discussion. *)

let experiments = Ron_experiments.Catalog.all

(* ------------------------------------------------- Bechamel micro-benches *)

let micro () =
  let open Bechamel in
  let module Rng = Ron_util.Rng in
  let module Indexed = Ron_metric.Indexed in
  let module Generators = Ron_metric.Generators in
  let module Net = Ron_metric.Net in
  let module Measure = Ron_metric.Measure in
  let module Packing = Ron_metric.Packing in
  Ron_experiments.Exp_common.section "MICRO"
    "Bechamel micro-benchmarks (construction and query costs)";
  let rng = Rng.create 7 in
  let idx = Indexed.create (Generators.random_cloud rng ~n:100 ~dim:2) in
  let hier = Net.Hierarchy.create idx in
  let mu = Measure.create idx hier in
  let tri = Ron_labeling.Triangulation.build idx ~delta:0.25 in
  let dls = Ron_labeling.Dls.build tri in
  let om = Ron_routing.On_metric.build idx ~delta:0.25 in
  let sp = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 8 8) in
  let basic = Ron_routing.Basic.build sp ~delta:0.25 in
  let sw = Ron_smallworld.Doubling_a.build idx mu (Rng.split rng) in
  let qrng = Rng.create 77 in
  let tests =
    Test.make_grouped ~name:"rings-of-neighbors"
      [
        Test.make ~name:"indexed.create(n=100)" (Staged.stage (fun () -> Indexed.create (Indexed.metric idx)));
        Test.make ~name:"net-hierarchy.create" (Staged.stage (fun () -> Net.Hierarchy.create idx));
        Test.make ~name:"doubling-measure.create" (Staged.stage (fun () -> Measure.create idx hier));
        Test.make ~name:"packing.create(eps=1/8)" (Staged.stage (fun () -> Packing.create idx ~eps:0.125));
        Test.make ~name:"triangulation.estimate"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               ignore (Ron_labeling.Triangulation.estimate tri u v)));
        Test.make ~name:"dls.estimate(label-only)"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               ignore
                 (Ron_labeling.Dls.estimate (Ron_labeling.Dls.label dls u)
                    (Ron_labeling.Dls.label dls v))));
        Test.make ~name:"route.on-metric"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               if u <> v then ignore (Ron_routing.On_metric.route om ~src:u ~dst:v)));
        Test.make ~name:"route.thm2.1-graph"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 64 and v = Rng.int qrng 64 in
               if u <> v then ignore (Ron_routing.Basic.route basic ~src:u ~dst:v)));
        Test.make ~name:"route.smallworld-greedy"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               if u <> v then
                 ignore (Ron_smallworld.Doubling_a.route sw ~src:u ~dst:v ~max_hops:100)));
      ]
  in
  let benchmark () =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = analyze (benchmark ()) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "%-48s %s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (name, ols) ->
      let est =
        match Bechamel.Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%12.1f" e
        | _ -> "?"
      in
      Printf.printf "%-48s %s\n" name est)
    rows

(* A comma-separated size list, e.g. 500,1000,2000. *)
let sizes_conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
        |> List.map int_of_string)
    with Failure _ ->
      Error (`Msg (Printf.sprintf "bad size list %S (expected e.g. 500,1000,2000)" s))
  in
  Cmdliner.Arg.conv
    (parse, fun ppf l -> Format.pp_print_string ppf (String.concat "," (List.map string_of_int l)))

let main ids json_file sizes scale_sizes scale_only (telemetry : Cli_obs.telemetry) =
  let checked =
    if telemetry.file <> None && json_file = None then
      Error "--telemetry requires --json (the sampler rides along the bench report)"
    else
      Result.bind (Cli_obs.check_telemetry telemetry) (fun () ->
          Cli_obs.check_writable "--json" json_file)
  in
  match checked with
  | Error e ->
    prerr_endline e;
    2
  | Ok () ->
    (match (ids, json_file) with
    | [ "list" ], None ->
      List.iter (fun (id, title, _) -> Printf.printf "%-6s %s\n" id title) experiments;
      Printf.printf "%-6s %s\n" "micro" "Bechamel micro-benchmarks"
    | [], None ->
      List.iter (fun (_, _, run) -> run ()) experiments;
      micro ()
    | [], Some _ -> () (* JSON report only *)
    | ids, _ ->
      List.iter
        (fun id ->
          if id = "micro" then micro ()
          else
            match List.find_opt (fun (i, _, _) -> i = id) experiments with
            | Some (_, _, run) -> run ()
            | None ->
              Printf.eprintf "unknown experiment id %S (try: dune exec bench/main.exe list)\n" id;
              exit 1)
        ids);
    Option.iter
      (fun file -> Bench_json.run ~scale_sizes ~scale_only ~telemetry ~file ~sizes ())
      json_file;
    0

let () =
  let open Cmdliner in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids, $(b,micro) or $(b,list).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the machine-readable perf report to $(docv).")
  in
  let sizes =
    Arg.(
      value
      & opt sizes_conv [ 500; 1000; 2000 ]
      & info [ "sizes" ] ~docv:"N,..." ~doc:"Sizes of the --json index and graph sections.")
  in
  let scale =
    Arg.(
      value & opt sizes_conv [ 10_000 ]
      & info [ "scale" ] ~docv:"N,..." ~doc:"Sizes of the --json scale section.")
  in
  let scale_only =
    Arg.(value & flag & info [ "scale-only" ] ~doc:"Measure only the --json scale section.")
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "bench" ~doc:"Reproduction experiments and the JSON perf report.")
          Term.(const main $ ids $ json $ sizes $ scale $ scale_only $ Cli_obs.telemetry_term)))
