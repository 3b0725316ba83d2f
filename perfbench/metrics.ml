(* Every metric the benchmark reports, with its unit. The names and units
   here are the ones BENCHMARK.json declares, with each metric's direction:
   an untraced run prints every end-to-end metric, a traced run every
   per-layer one. *)

type def = { name : string; unit : string }

let d name unit = { name; unit }

let end_to_end =
  [
    d "qps" "1/s";
    d "latency_p50_ns" "ns";
    d "latency_p99_ns" "ns";
    d "success_frac" "frac";
    d "stretch_mean" "ratio";
    d "setup_s" "s";
    d "cold_start_s" "s";
    d "peak_rss_mb" "MB";
  ]

(* Schemes in scheme-tag order, with the library that builds each. *)
let schemes =
  [ ("basic", "routing"); ("labelled", "routing"); ("two_mode", "routing");
    ("meridian", "smallworld"); ("landmark", "labeling") ]

(* Effective query kinds each frozen scheme executes. *)
let kinds =
  [ ("basic", [ "route" ]); ("labelled", [ "route"; "dist" ]); ("two_mode", [ "route"; "dist" ]);
    ("meridian", [ "locate" ]); ("landmark", [ "dist" ]) ]

let per_scheme f = List.concat_map (fun (s, lib) -> f s lib) schemes

let per_layer =
  List.concat
    [
      [ d "graph.substrate_s" "s" ];
      per_scheme (fun s lib -> [ d (Printf.sprintf "%s.build_s.%s" lib s) "s" ]);
      [ d "profile.construct.structure_s" "s"; d "profile.construct.dls.labels_s" "s";
        d "profile.construct.dls.virtuals_s" "s" ];
      per_scheme (fun s _ -> [ d ("serve.server.freeze_s." ^ s) "s" ]);
      [ d "serve.image.save_s" "s"; d "serve.image.load_s" "s"; d "serve.image.snapshot_bytes_per_node" "B" ];
      per_scheme (fun s _ ->
          [ d ("serve.image.bytes_per_node." ^ s) "B"; d ("serve.image.largest_section_bytes." ^ s) "B" ]);
      [ d "util.workload.prepare_s" "s" ];
      List.concat_map
        (fun (s, ks) -> List.map (fun k -> d (Printf.sprintf "serve.server.query_ns.%s.%s" s k) "ns") ks)
        kinds;
      per_scheme (fun s _ ->
          [ d ("serve.server.hops_mean." ^ s) "count"; d ("serve.server.aux_mean." ^ s) "count";
            d ("serve.server.ns_per_hop." ^ s) "ns" ]);
      per_scheme (fun s _ ->
          [ d ("serve.loop.qps_jobs1." ^ s) "1/s";
            d ("serve.loop.minor_words_per_query." ^ s) "words" ]);
      [ d "serve.loop.overhead_frac" "frac"; d "serve.loop.cold_first_batch_s" "s" ];
      [ d "util.pool.qps_parallel" "1/s" ];
      List.map (fun s -> d ("util.pool.speedup." ^ s) "ratio")
        (List.map fst schemes @ [ "churn" ]);
      [ d "churn.create_s" "s"; d "churn.leave_us_p50" "us"; d "churn.leave_us_mean" "us";
        d "churn.join_us_p50" "us"; d "churn.join_us_mean" "us"; d "churn.updates_per_event" "count";
        d "churn.refills_per_event" "count"; d "churn.stale_members_after" "count";
        d "churn.repair_events_per_s" "1/s" ];
      [ d "routing.route_wrapped_us" "us"; d "routing.stale_hits_per_query" "count";
        d "routing.detours_per_query" "count"; d "routing.detour_success" "frac";
        d "routing.hops_per_query" "count"; d "routing.ring_members_scanned_per_query" "count" ];
      [ d "trace.setup_overhead_frac" "frac"; d "trace.qps_overhead_frac" "frac";
        d "trace.spans" "count"; d "clock.step_ns" "ns"; d "clock.call_ns" "ns" ];
    ]

(* Values recorded by one run. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.exists (fun m -> m.name = name) (end_to_end @ per_layer)) then
    invalid_arg ("Metrics.set: undeclared metric " ^ name);
  Hashtbl.replace values name v

let get name = Hashtbl.find_opt values name

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The metrics object for the chosen set. An end-to-end metric must have a
   positive finite value; a per-layer metric the workload does not
   exercise reads 0. *)
let to_json ~traced =
  let defs = if traced then per_layer else end_to_end in
  let field m =
    let v =
      match get m.name with
      | Some v when Float.is_finite v -> v
      | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" m.name v)
      | None when traced -> 0.0
      | None -> failwith (Printf.sprintf "metric %s was not measured" m.name)
    in
    if (not traced) && not (v > 0.0) then
      failwith (Printf.sprintf "end-to-end metric %s is not positive (%g)" m.name v);
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number v) m.unit
  in
  "{" ^ String.concat "," (List.map field defs) ^ "}"
