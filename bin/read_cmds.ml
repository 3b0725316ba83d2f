(* The read side of ron_cli: validate, summarize and compare the files the
   construction subcommands and bench/main.exe write.

     check trace|telemetry|expo FILE
       Validate a --trace JSONL stream (every line a well-typed event, B/E
       balanced per domain, "error" args only on E events, not empty), a
       --telemetry snapshot series (seq from 0 without gaps, ts monotone,
       typed sections, not empty) or a --expo Prometheus exposition (TYPE
       discipline, name/label syntax, histogram invariants).
     report trace|telemetry|slo FILE [--json] [--folded OUT]
       trace: per-span count, total and self time, p50/p95/p99/p999 and a
       per-domain breakdown; --folded writes "a;b;c SELF" stack lines for
       flamegraph tools. telemetry: per-series min/max/last with a
       sparkline, plus a derived oracle hit rate and serving qps. slo: a
       ron-slo/1 verdict (--slo-out) as a window/burn table, with flight
       exemplars attributed to the windows they violated.
     diff BASE NEW [--threshold X] [--det-threshold X] [--out FILE] [--warn-only]
       Compare two ron-bench/1 reports leaf by leaf (Ron_util.Bench_keys
       splits timing, throughput and deterministic keys) and exit 1 on a
       regression unless --warn-only.

   An unreadable or invalid input file exits 1 (diff: 2, so that it is
   never mistaken for a regression); a usage error exits 124. *)

open Cmdliner
module Trace_read = Ron_obs.Trace_read
module Json = Ron_obs.Json

let fail ?(code = 1) cmd fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "ron %s: %s\n" cmd s;
      exit code)
    fmt

(* Read [file] and check it; returns the value and [validate]'s count. *)
let load ?code cmd read validate file =
  match read file with
  | exception Sys_error e -> fail ?code cmd "%s" e
  | Error e -> fail ?code cmd "%s: %s" file e
  | Ok x -> (
    match validate x with Error e -> fail ?code cmd "%s: %s" file e | Ok n -> (x, n))

let nonempty cmd what file (x, n) = if n = 0 then fail cmd "%s: no %s" file what else (x, n)
let read_trace cmd file = load cmd Trace_read.read_file Trace_read.validate file

let read_telemetry cmd file =
  nonempty cmd "telemetry samples" file
    (load cmd Trace_read.read_snapshot_file Trace_read.validate_snapshots file)

let read_json file = Json.of_string (In_channel.with_open_text file In_channel.input_all)
let file_pos i docv = Arg.(required & pos i (some string) None & info [] ~docv)
let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let number = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

let sorted_floats l =
  let xs = Array.of_list l in
  Ron_util.Fsort.sort_floats xs;
  xs

(* ----------------------------------------------------------------- check *)

let check_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum [ ("trace", `Trace); ("telemetry", `Telemetry); ("expo", `Expo) ])) None
      & info [] ~docv:"KIND" ~doc:"What FILE holds: $(b,trace), $(b,telemetry) or $(b,expo).")
  in
  let run kind file =
    let n, what =
      match kind with
      | `Trace -> (snd (nonempty "check" "trace events" file (read_trace "check" file)), "events")
      | `Telemetry -> (snd (read_telemetry "check" file), "telemetry samples")
      | `Expo -> (snd (load "check" Ron_obs.Expo.validate_file Result.ok file), "exposition samples")
    in
    Printf.printf "ron check: %s: %d well-formed %s\n" file n what;
    0
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a trace, telemetry or exposition file (exit 1 if invalid).")
    Term.(const run $ kind $ file_pos 1 "FILE")

(* ---------------------------------------------------------- report trace *)

type span_agg = {
  mutable count : int;
  mutable total : int;
  mutable self : int;
  mutable durations : int list;
  by_dom : (int, int * int) Hashtbl.t; (* dom -> count, total *)
}

type frame = { t0 : int; mutable child : int; path : string }

(* Durations come from matching B/E pairs, replayed per domain with the
   stack discipline Trace_read.validate enforces; self time is a span's
   duration minus its same-domain children's. Timestamps are in whatever
   clock the trace was recorded with (logical ticks by default,
   nanoseconds under --trace), hence the generic "ticks" columns. *)
let report_trace file ~json ~folded =
  let events, _ = read_trace "report" file in
  let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 16 in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let folded_acc : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let stack dom = Option.value (Hashtbl.find_opt stacks dom) ~default:[] in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun (e : Trace_read.event) ->
      match e.ph with
      | Trace_read.I -> bump instants e.name 1
      | Trace_read.B ->
        let parent = stack e.dom in
        let path = match parent with [] -> e.name | top :: _ -> top.path ^ ";" ^ e.name in
        Hashtbl.replace stacks e.dom ({ t0 = e.ts; child = 0; path } :: parent)
      | Trace_read.E -> (
        match stack e.dom with
        | [] -> assert false (* validate already accepted the stream *)
        | top :: rest ->
          Hashtbl.replace stacks e.dom rest;
          let dur = e.ts - top.t0 in
          let self = dur - top.child in
          (match rest with [] -> () | parent :: _ -> parent.child <- parent.child + dur);
          let agg =
            match Hashtbl.find_opt spans e.name with
            | Some a -> a
            | None ->
              let a =
                { count = 0; total = 0; self = 0; durations = []; by_dom = Hashtbl.create 4 }
              in
              Hashtbl.replace spans e.name a;
              a
          in
          agg.count <- agg.count + 1;
          agg.total <- agg.total + dur;
          agg.self <- agg.self + self;
          agg.durations <- dur :: agg.durations;
          let c, t = Option.value (Hashtbl.find_opt agg.by_dom e.dom) ~default:(0, 0) in
          Hashtbl.replace agg.by_dom e.dom (c + 1, t + dur);
          bump folded_acc top.path self))
    events;
  let rows = Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) spans [] in
  let rows =
    List.sort
      (fun (na, a) (nb, b) ->
        match compare b.total a.total with 0 -> String.compare na nb | c -> c)
      rows
  in
  let inst = Hashtbl.fold (fun name c acc -> (name, c) :: acc) instants [] in
  let inst = List.sort (fun (a, _) (b, _) -> String.compare a b) inst in
  (* Nearest-rank percentiles via the shared helper (the rule report slo
     and the bucketed histograms use too); [p] in [0,100]. *)
  let percentiles agg =
    let sorted = sorted_floats (List.rev_map float_of_int agg.durations) in
    List.map
      (fun p ->
        let v = Ron_util.Stats.percentile_sorted sorted p in
        if Float.is_nan v then 0 else int_of_float v)
      [ 50.0; 95.0; 99.0; 99.9 ]
  in
  let domains agg =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun d ct acc -> (d, ct) :: acc) agg.by_dom [])
  in
  if json then begin
    let span_json (name, agg) =
      let pcts = List.combine [ "p50"; "p95"; "p99"; "p999" ] (percentiles agg) in
      Json.Obj
        ([
           ("name", Json.String name);
           ("count", Json.Int agg.count);
           ("total_ticks", Json.Int agg.total);
           ("self_ticks", Json.Int agg.self);
         ]
        @ List.map (fun (k, v) -> (k, Json.Int v)) pcts
        @ [
            ( "domains",
              Json.List
                (List.map
                   (fun (d, (c, t)) ->
                     Json.Obj
                       [ ("dom", Json.Int d); ("count", Json.Int c); ("total_ticks", Json.Int t) ])
                   (domains agg)) );
          ])
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-trace-report/1");
              ("file", Json.String file);
              ("events", Json.Int (List.length events));
              ("spans", Json.List (List.map span_json rows));
              ( "instants",
                Json.List
                  (List.map
                     (fun (name, c) -> Json.Obj [ ("name", Json.String name); ("count", Json.Int c) ])
                     inst) );
            ]))
  end
  else begin
    Printf.printf "ron report: %s: %d events, %d span names, %d instant names\n\n" file
      (List.length events) (List.length rows) (Hashtbl.length instants);
    Printf.printf "%-28s %8s %14s %14s %12s %12s %12s %12s  %s\n" "span" "count"
      "total_ticks" "self_ticks" "p50" "p95" "p99" "p999" "domains (count@total)";
    Printf.printf "%s\n" (String.make 136 '-');
    List.iter
      (fun (name, agg) ->
        let doms_s =
          String.concat " "
            (List.map (fun (d, (c, t)) -> Printf.sprintf "%d:%d@%d" d c t) (domains agg))
        in
        Printf.printf "%-28s %8d %14d %14d" name agg.count agg.total agg.self;
        List.iter (Printf.printf " %12d") (percentiles agg);
        Printf.printf "  %s\n" doms_s)
      rows;
    if inst <> [] then begin
      Printf.printf "\n%-28s %8s\n" "instant" "count";
      Printf.printf "%s\n" (String.make 37 '-');
      List.iter (fun (name, c) -> Printf.printf "%-28s %8d\n" name c) inst
    end
  end;
  Option.iter
    (fun out ->
      let paths = Hashtbl.fold (fun p v acc -> (p, v) :: acc) folded_acc [] in
      Out_channel.with_open_text out (fun oc ->
          List.iter
            (fun (p, v) -> Printf.fprintf oc "%s %d\n" p v)
            (List.sort (fun (a, _) (b, _) -> String.compare a b) paths));
      if not json then
        Printf.printf "\nfolded stacks: %d paths -> %s\n" (List.length paths) out)
    folded

(* ------------------------------------------------------ report telemetry *)

(* Series are extracted per name — counter deltas, gauge levels, bounded-
   histogram count/p99, gc fields, rss_kb — plus two derived series when
   their counters appear at all: the oracle hit rate (hits / (hits +
   builds) per sample) and serving qps (serve.queries delta over the
   sample's wall-clock span). A series is (sample index, value) points:
   sections only carry a name once it has something to report, so indices
   may be sparse. *)
let report_telemetry file ~json =
  let snaps, n_samples = read_telemetry "report" file in
  (* name -> points, accumulated in sample order. *)
  let acc : (string, (int * float) list) Hashtbl.t = Hashtbl.create 64 in
  let push name i v =
    Hashtbl.replace acc name ((i, v) :: Option.value (Hashtbl.find_opt acc name) ~default:[])
  in
  let hits_builds = ref [] and serve_qps = ref [] in
  let ts_arr = Array.of_list (List.map (fun (s : Trace_read.snapshot) -> s.sts) snaps) in
  List.iteri
    (fun i (s : Trace_read.snapshot) ->
      let push_all prefix = List.iter (fun (k, v) -> Option.iter (push (prefix ^ k) i) (number v)) in
      push_all "counter:" s.counters;
      push_all "gauge:" s.gauges;
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Obj fields ->
            push_all ("hist:" ^ k ^ ".")
              (List.filter (fun (f, _) -> f = "count" || f = "p99") fields)
          | _ -> ())
        s.hists;
      Option.iter (push_all "gc.") s.gc;
      Option.iter (fun kb -> push "rss_kb" i (float_of_int kb)) s.rss_kb;
      let delta k =
        match List.assoc_opt k s.counters with Some (Json.Int d) -> float_of_int d | _ -> 0.0
      in
      let h = delta "oracle.row_hits" and b = delta "oracle.row_builds" in
      if h +. b > 0.0 then hits_builds := (i, h /. (h +. b)) :: !hits_builds;
      (* The first sample has no span, and a clock stall must not divide
         by zero. *)
      let q = delta "serve.queries" in
      if q > 0.0 && i > 0 then begin
        let dt = float_of_int (ts_arr.(i) - ts_arr.(i - 1)) /. 1e9 in
        if dt > 0.0 then serve_qps := (i, q /. dt) :: !serve_qps
      end)
    snaps;
  if !hits_builds <> [] then Hashtbl.replace acc "derived:oracle.hit_rate" !hits_builds;
  if !serve_qps <> [] then Hashtbl.replace acc "derived:serve.qps" !serve_qps;
  let series =
    Hashtbl.fold (fun name points l -> (name, List.rev points) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let stats points =
    let vs = List.map snd points in
    ( List.fold_left Float.min infinity vs,
      List.fold_left Float.max neg_infinity vs,
      List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs),
      List.nth vs (List.length vs - 1) )
  in
  let ts_first = ts_arr.(0) and ts_last = ts_arr.(n_samples - 1) in
  if json then begin
    let series_json (name, points) =
      let mn, mx, mean, last = stats points in
      Json.Obj
        [
          ("name", Json.String name);
          ("points", Json.Int (List.length points));
          ("min", Json.Float mn);
          ("max", Json.Float mx);
          ("mean", Json.Float mean);
          ("last", Json.Float last);
        ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-telemetry-report/1");
              ("file", Json.String file);
              ("samples", Json.Int n_samples);
              ("ts_first", Json.Int ts_first);
              ("ts_last", Json.Int ts_last);
              ("series", Json.List (List.map series_json series));
            ]))
  end
  else begin
    Printf.printf "ron report: %s: %d samples, ts %d..%d, %d series\n\n" file n_samples ts_first
      ts_last (List.length series);
    Printf.printf "%-36s %7s %12s %12s %12s  %s\n" "series" "points" "min" "max" "last" "trend";
    Printf.printf "%s\n" (String.make 124 '-');
    List.iter
      (fun (name, points) ->
        let mn, mx, _, last = stats points in
        Printf.printf "%-36s %7d %12.6g %12.6g %12.6g  %s\n" name (List.length points) mn mx
          last (Ron_obs.Sparkline.render ~samples:n_samples points))
      series
  end

(* ------------------------------------------------------------ report slo *)

let report_slo file ~json =
  let v, _ =
    load "report" read_json
      (fun v ->
        match Json.member "schema" v with
        | Some (Json.String "ron-slo/1") -> Ok 0
        | _ -> Error "not a ron-slo/1 verdict")
      file
  in
  let mem = Json.member in
  let str = function Some (Json.String s) -> s | _ -> "?" in
  let num j = Option.value (Option.bind j number) ~default:nan in
  let int_of = function Some (Json.Int i) -> i | _ -> 0 in
  let bool_of = function Some (Json.Bool b) -> b | _ -> false in
  let list_of = function Some (Json.List l) -> l | _ -> [] in
  let spec = str (mem "spec" v) and window = int_of (mem "window" v) in
  let totals = mem "totals" v in
  let t_field name = int_of (Option.bind totals (mem name)) in
  let max_burn = num (Option.bind totals (mem "max_burn")) in
  (* (index, count, delivered, [objective, value, burn, violated]) *)
  let windows =
    List.map
      (fun j ->
        ( int_of (mem "window" j),
          int_of (mem "count" j),
          int_of (mem "delivered" j),
          List.map
            (fun r ->
              (str (mem "objective" r), num (mem "value" r), num (mem "burn" r), bool_of (mem "violated" r)))
            (list_of (mem "results" j)) ))
      (list_of (mem "windows" v))
  in
  let violated = List.filter (fun (_, _, _, rs) -> List.exists (fun (_, _, _, x) -> x) rs) windows in
  (* (qid, latency, exemplar) of every flight exemplar, window by window *)
  let exemplars =
    List.concat_map
      (fun wj -> List.map (fun xj -> (int_of (mem "qid" xj), num (mem "lat" xj), xj)) (list_of (mem "exemplars" wj)))
      (list_of (Option.bind (mem "flight" v) (mem "windows")))
  in
  let ok = bool_of (mem "ok" v) in
  let lat_sorted = sorted_floats (List.map (fun (_, lat, _) -> lat) exemplars) in
  let pct p = Ron_util.Stats.percentile_sorted lat_sorted p in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-slo-report/1");
              ("file", Json.String file);
              ("spec", Json.String spec);
              ("window", Json.Int window);
              ("windows", Json.Int (List.length windows));
              ("violated_windows", Json.Int (List.length violated));
              ("max_burn_rate", Json.Float max_burn);
              ("observations", Json.Int (t_field "observations"));
              ("delivered", Json.Int (t_field "delivered"));
              ("exemplars", Json.Int (List.length exemplars));
              ( "exemplar_lat",
                Json.Obj
                  [
                    ("p50", Json.Float (pct 50.0));
                    ("p95", Json.Float (pct 95.0));
                    ("p99", Json.Float (pct 99.0));
                    ("p999", Json.Float (pct 99.9));
                  ] );
              ("ok", Json.Bool ok);
            ]))
  else begin
    Printf.printf "ron report: %s\n" file;
    Printf.printf "  spec: %s   window: %d queries\n" spec window;
    Printf.printf "  windows: %d   violated: %d   max burn rate: %.9g   ok: %b\n\n"
      (List.length windows) (List.length violated) max_burn ok;
    Printf.printf "%-8s %8s %10s  %s\n" "window" "count" "delivered"
      "objective value/burn (flag = violated)";
    Printf.printf "%s\n" (String.make 96 '-');
    List.iter
      (fun (index, count, delivered, results) ->
        let cells =
          String.concat "  "
            (List.map
               (fun (o, v, b, viol) ->
                 Printf.sprintf "%s: %.9g burn %.3g%s" o v b (if viol then " !" else ""))
               results)
        in
        Printf.printf "%-8d %8d %10d  %s\n" index count delivered cells)
      windows;
    if exemplars <> [] then begin
      Printf.printf "\nflight exemplars: %d retained (lat p50 %.9g  p95 %.9g  p99 %.9g  p999 %.9g)\n"
        (List.length exemplars) (pct 50.0) (pct 95.0) (pct 99.0) (pct 99.9);
      (* An exemplar's SLO window is its qid / the SLO window size. *)
      List.iter
        (fun (wi, _, _, _) ->
          let hits =
            List.filter (fun (qid, _, _) -> (if window > 0 then qid / window else 0) = wi) exemplars
          in
          if hits <> [] then begin
            Printf.printf "  violated window %d — %d exemplar(s):\n" wi (List.length hits);
            List.iter (fun (_, _, xj) -> Printf.printf "    %s\n" (Json.to_line xj)) hits
          end)
        violated
    end
  end

let report_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum [ ("trace", `Trace); ("telemetry", `Telemetry); ("slo", `Slo) ])) None
      & info [] ~docv:"KIND"
          ~doc:"What FILE holds: $(b,trace), $(b,telemetry) or $(b,slo) (an --slo-out verdict).")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"OUT"
          ~doc:"With $(b,trace): write folded stacks (one \"a;b;c SELF\" line per path) to $(docv).")
  in
  let run kind file json folded =
    match (kind, folded) with
    | `Trace, _ -> (
      match Cli_obs.check_writable "--folded" folded with
      | Error e -> fail ~code:2 "report" "%s" e
      | Ok () -> `Ok (report_trace file ~json ~folded; 0))
    | _, Some _ -> `Error (true, "--folded applies to report trace only")
    | `Telemetry, None -> `Ok (report_telemetry file ~json; 0)
    | `Slo, None -> `Ok (report_slo file ~json; 0)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize a trace, a telemetry series or an SLO verdict.")
    Term.(ret (const run $ kind $ file_pos 1 "FILE" $ json_flag $ folded))

(* ------------------------------------------------------------------ diff *)

(* Keys that describe the environment or are derived, and the profile
   section, are ignored: they are not regression signals. *)
let ignored_keys =
  [
    "schema"; "timestamp"; "ocaml_version"; "ron_jobs"; "recommended_domains";
    "word_size"; "peak_rss_kb"; "profile"; "minor_words_per_query";
  ]

let ignored key =
  List.mem key ignored_keys
  || (String.length key >= 8 && String.sub key 0 8 = "speedup_")

type status = Ok_same | Faster | Slower | Mismatch | Skipped

type row = {
  path : string;
  base : string;
  next : string;
  delta : float option; (* relative change for numerics *)
  status : status;
  note : string;
}

let status_string = function
  | Ok_same -> "ok"
  | Faster -> "faster"
  | Slower -> "SLOWER"
  | Mismatch -> "MISMATCH"
  | Skipped -> "skip"

let rows : row list ref = ref []

let add path base next delta status note =
  rows := { path; base; next; delta; status; note } :: !rows

let num_string v = Printf.sprintf "%.6g" v

let compare_leaf ~threshold ~det_threshold path key base next =
  match (number base, number next) with
  | Some b, Some n -> (
    let module K = Ron_util.Bench_keys in
    let dir = K.classify key in
    let outcome, delta = K.verdict dir ~threshold ~det_threshold ~base:b ~next:n in
    let nonfinite = not (Float.is_finite b && Float.is_finite n) in
    match outcome with
    | K.Same -> add path (num_string b) (num_string n) delta Ok_same ""
    | K.Better ->
      add path (num_string b) (num_string n) delta Faster
        (if delta = None then "zero baseline: judged by key direction" else "")
    | K.Worse ->
      let note =
        match (delta, dir) with
        | None, _ -> "zero baseline: judged by key direction"
        | Some _, K.Timing ->
          Printf.sprintf "exceeds +%.0f%% threshold" (threshold *. 100.0)
        | Some _, _ ->
          Printf.sprintf "throughput fell past -%.0f%% threshold" (threshold *. 100.0)
      in
      add path (num_string b) (num_string n) delta Slower note
    | K.Changed ->
      let note =
        if nonfinite then "non-finite value"
        else if delta = None then "deterministic value changed from zero baseline"
        else "deterministic value changed"
      in
      add path (num_string b) (num_string n) delta Mismatch note)
  | _ -> (
    match (base, next) with
    | Json.Bool b, Json.Bool n ->
      if b = n then add path (string_of_bool b) (string_of_bool n) None Ok_same ""
      else add path (string_of_bool b) (string_of_bool n) None Mismatch "invariant flipped"
    | Json.String b, Json.String n ->
      if String.equal b n then add path b n None Ok_same ""
      else add path b n None Mismatch "label changed"
    | _ ->
      add path (Json.to_line base) (Json.to_line next) None Mismatch "type changed")

(* List entries are benchmark points keyed by problem size, so a CI run
   at small sizes diffs cleanly against a full-size baseline: unmatched
   sizes are skipped, not failed. *)
let entry_key j =
  match Json.member "n" j with
  | Some (Json.Int n) -> Some n
  | _ -> ( match Json.member "nodes" j with Some (Json.Int n) -> Some n | _ -> None)

let rec compare_values ~threshold ~det_threshold path key base next =
  match (base, next) with
  | Json.Obj bs, Json.Obj ns ->
    List.iter
      (fun (k, bv) ->
        if not (ignored k) then begin
          let sub = if path = "" then k else path ^ "." ^ k in
          match List.assoc_opt k ns with
          | Some nv -> compare_values ~threshold ~det_threshold sub k bv nv
          | None -> add sub (Json.to_line bv) "-" None Skipped "missing in NEW"
        end)
      bs;
    List.iter
      (fun (k, nv) ->
        if (not (ignored k)) && List.assoc_opt k bs = None then
          add (if path = "" then k else path ^ "." ^ k) "-" (Json.to_line nv) None Skipped
            "missing in BASE")
      ns
  | Json.List bs, Json.List ns ->
    List.iteri
      (fun i bv ->
        match entry_key bv with
        | None ->
          (* Unkeyed list: positional. *)
          let sub = Printf.sprintf "%s[%d]" path i in
          if i < List.length ns then
            compare_values ~threshold ~det_threshold sub key bv (List.nth ns i)
          else add sub (Json.to_line bv) "-" None Skipped "missing in NEW"
        | Some n -> (
          let sub = Printf.sprintf "%s[n=%d]" path n in
          match List.find_opt (fun nv -> entry_key nv = Some n) ns with
          | Some nv -> compare_values ~threshold ~det_threshold sub key bv nv
          | None -> add sub "-" "-" None Skipped "size not measured in NEW"))
      bs;
    List.iter
      (fun nv ->
        match entry_key nv with
        | Some n when not (List.exists (fun bv -> entry_key bv = Some n) bs) ->
          add (Printf.sprintf "%s[n=%d]" path n) "-" "-" None Skipped
            "size not measured in BASE"
        | _ -> ())
      ns
  | _ -> compare_leaf ~threshold ~det_threshold path key base next

let run_diff base_file next_file threshold det_threshold out warn_only =
  (match Cli_obs.check_writable "--out" out with
  | Error e -> fail ~code:2 "diff" "%s" e
  | Ok () -> ());
  let read file = fst (load ~code:2 "diff" read_json Result.ok file) in
  let base = read base_file and next = read next_file in
  compare_values ~threshold ~det_threshold "" "" base next;
  let all = List.rev !rows in
  Printf.printf "ron diff: %s vs %s (threshold +%.0f%%, det %g)\n\n" base_file next_file
    (threshold *. 100.0) det_threshold;
  Printf.printf "%-52s %14s %14s %8s  %-8s %s\n" "key" "base" "new" "delta" "status" "note";
  Printf.printf "%s\n" (String.make 110 '-');
  List.iter
    (fun r ->
      let delta_s =
        match r.delta with
        | Some d when Float.is_finite d -> Printf.sprintf "%+.1f%%" (d *. 100.0)
        | Some _ -> "inf"
        | None -> "-"
      in
      Printf.printf "%-52s %14s %14s %8s  %-8s %s\n" r.path r.base r.next delta_s
        (status_string r.status) r.note)
    all;
  let pick st = List.filter (fun r -> r.status = st) all in
  let count st = List.length (pick st) in
  let slower = count Slower and mismatch = count Mismatch in
  let faster = count Faster and skipped = count Skipped and same = count Ok_same in
  let regressions = slower + mismatch in
  Printf.printf "\n%d compared: %d ok, %d faster, %d slower, %d mismatched, %d skipped\n"
    (List.length all - skipped) same faster slower mismatch skipped;
  Option.iter
    (fun file ->
      let row_json r =
        Json.Obj
          [
            ("key", Json.String r.path);
            ("base", Json.String r.base);
            ("new", Json.String r.next);
            ("delta", match r.delta with Some d when Float.is_finite d -> Json.Float d | _ -> Json.Null);
            ("status", Json.String (status_string r.status));
            ("note", Json.String r.note);
          ]
      in
      let verdict =
        Json.Obj
          [
            ("schema", Json.String "ron-bench-diff/1");
            ("base", Json.String base_file);
            ("new", Json.String next_file);
            ("threshold", Json.Float threshold);
            ("det_threshold", Json.Float det_threshold);
            ("compared", Json.Int (List.length all - skipped));
            ("verdict", Json.String (if regressions = 0 then "ok" else "regression"));
            ("warn_only", Json.Bool warn_only);
            ("regressions", Json.List (List.map row_json (pick Slower @ pick Mismatch)));
            ("improvements", Json.List (List.map row_json (pick Faster)));
            ("skipped", Json.List (List.map row_json (pick Skipped)));
          ]
      in
      Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string verdict));
      Printf.printf "verdict json -> %s\n" file)
    out;
  if regressions > 0 then begin
    Printf.printf "verdict: REGRESSION (%d finding%s)%s\n" regressions
      (if regressions = 1 then "" else "s")
      (if warn_only then " [warn-only: exit 0]" else "");
    if warn_only then 0 else 1
  end
  else begin
    Printf.printf "verdict: ok\n";
    0
  end

let diff_cmd =
  let float_above ~strict lo =
    let parse s =
      match float_of_string_opt s with
      | Some f when f > lo || ((not strict) && f = lo) -> Ok f
      | _ -> Error (`Msg (Printf.sprintf "expected a number %s %g" (if strict then ">" else ">=") lo))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let threshold =
    Arg.(
      value
      & opt (float_above ~strict:true 0.0) 0.5
      & info [ "threshold" ] ~docv:"X"
          ~env:(Cmd.Env.info "RON_BENCH_DIFF_THRESHOLD")
          ~doc:
            "Relative change a timing or throughput key may move the wrong way before it fails \
             (0.5 = 50% slower).")
  in
  let det_threshold =
    Arg.(
      value
      & opt (float_above ~strict:false 0.0) 1e-9
      & info [ "det-threshold" ] ~docv:"X"
          ~doc:"Relative tolerance of the deterministic keys (stretch, hops, counters, bits).")
  in
  let out =
    Cli_obs.file_arg "out" "Write the machine-readable verdict (ron-bench-diff/1) to $(docv)."
  in
  let warn_only =
    Arg.(value & flag & info [ "warn-only" ] ~doc:"Report regressions but exit 0.")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two bench reports (ron-bench/1) and flag regressions.")
    Term.(
      const run_diff $ file_pos 0 "BASE" $ file_pos 1 "NEW" $ threshold $ det_threshold $ out
      $ warn_only)
