(* The serve workloads: build each scheme, freeze it, save the snapshot,
   load it back and serve seeded Zipf workloads from the loaded file.

   serve-hops     basic (10x10 grid), labelled (8x8 grid), two_mode
                  (100-point cloud), meridian (2000-point cloud); the
                  default 0.6/0.3/0.1 route/dist/locate mix, Zipf s=1.1.
   serve-landmark landmark on a 316x316 torus (n = 99856), uniform
                  targets (Zipf s=0).

   Each scheme gets an equal share of the timed budget, spent in rounds:
   one Loop.run batch at jobs=1, one at the parallel job count, then a
   sequential pass timing every Server.query on its own. *)

module Server = Ron_serve.Server
module Loop = Ron_serve.Loop
module Image = Ron_serve.Image
module Fixture = Ron_serve.Fixture
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Rng = Ron_util.Rng
module Samples = Ctx.Samples
module A1 = Bigarray.Array1

type spec = {
  scheme : string;
  lib : string;  (* the library that builds it, for metric names *)
  size : int;  (* grid side for graph schemes, point count for clouds *)
  queries : int;  (* one round's workload, served as one Loop.run batch *)
  zipf_s : float;
  sample : int;  (* queries checked against the live scheme *)
}

let hops_specs =
  [
    { scheme = "basic"; lib = "routing"; size = 10; queries = 8192; zipf_s = 1.1; sample = 512 };
    { scheme = "labelled"; lib = "routing"; size = 8; queries = 256; zipf_s = 1.1; sample = 64 };
    { scheme = "two_mode"; lib = "routing"; size = 100; queries = 2048; zipf_s = 1.1; sample = 256 };
    { scheme = "meridian"; lib = "smallworld"; size = 2000; queries = 32768; zipf_s = 1.1; sample = 512 };
  ]

let landmark_specs =
  [ { scheme = "landmark"; lib = "labeling"; size = 316; queries = 65536; zipf_s = 0.0; sample = 1536 } ]

let min_rounds = 6
let min_latency_samples = 2000

(* ------------------------------------------------------------- set-up *)

(* Set-up timings of one scheme in one repetition, in nanoseconds. *)
type times = {
  substrate : int;
  build : int;
  freeze : int;
  save : int;
  load : int;
  prepare : int;
  first : int;  (* first batch served from the freshly loaded file *)
}

type built = {
  spec : spec;
  live : Fixture.live;
  dist : int -> int -> float;  (* true distance, for stretch *)
  warm : Server.t;  (* frozen in process *)
  srv : Server.t;  (* loaded back from the saved file: what is served *)
  work : Loop.workload;
  file : string;  (* the saved snapshot; removed once no longer loaded *)
  cold_digest : int;
  times : times;
}

(* The instances are fixed (seed 5, as in Fixture); the run seed draws the
   queries. Instance-to-instance differences in query cost would otherwise
   swamp what a change to the code moves. *)
let instance_seed = 5

let build_live (ctx : Ctx.t) spec =
  let m name f = Ctx.measure ctx (Printf.sprintf "%s.%s" name spec.scheme) f in
  let sub f = m "graph.substrate" f and bld f = m (spec.lib ^ ".build") f in
  let grid_metric gen = sub (fun () -> Sp_metric.create ~jobs:ctx.Ctx.jobs_par (gen spec.size spec.size)) in
  let cloud rng =
    sub (fun () ->
        Indexed.create ~jobs:ctx.Ctx.jobs_par (Generators.random_cloud rng ~n:spec.size ~dim:2))
  in
  let seed = instance_seed in
  match spec.scheme with
  | "basic" ->
    let (sp, ts) = grid_metric Graph_gen.grid in
    let (s, tb) = bld (fun () -> Ron_routing.Basic.build sp ~delta:0.25) in
    (Fixture.L_basic s, Sp_metric.dist sp, ts, tb)
  | "labelled" ->
    let (sp, ts) = grid_metric Graph_gen.grid in
    let (s, tb) = bld (fun () -> Ron_routing.Labelled.build sp ~delta:0.25) in
    (Fixture.L_labelled s, Sp_metric.dist sp, ts, tb)
  | "two_mode" ->
    let (idx, ts) = cloud (Rng.create seed) in
    let (s, tb) = bld (fun () -> Ron_routing.Two_mode.build idx ~delta:0.125) in
    (Fixture.L_two_mode s, Indexed.dist idx, ts, tb)
  | "meridian" ->
    let rng = Rng.create seed in
    let (idx, ts) = cloud (Rng.split rng) in
    let (s, tb) =
      bld (fun () ->
          let n = Indexed.size idx in
          let perm = Array.init n Fun.id in
          Rng.shuffle rng perm;
          (* A fifth of the nodes are non-member targets, as in Fixture. *)
          let members = Array.sub perm (n / 5) (n - (n / 5)) in
          Ron_smallworld.Meridian.build idx (Rng.split rng) ~ring_size:8 ~members)
    in
    (Fixture.L_meridian s, Indexed.dist idx, ts, tb)
  | "landmark" ->
    let (sp, ts) = grid_metric Graph_gen.torus in
    let (s, tb) =
      bld (fun () ->
          let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
          let k = max 4 (min 32 (1 + Ron_util.Bits.ilog2_floor n)) in
          Ron_labeling.Landmark.build ~jobs:ctx.Ctx.jobs_par sp (Rng.create seed) ~k
            ~local_radius:2.0)
    in
    (* Sp_metric.dist would solve a row per smaller endpoint; the sample
       pairs share 48 sources, so keep those sources' raw rows. *)
    let rows = Hashtbl.create 16 in
    let dist u v =
      let row =
        match Hashtbl.find_opt rows u with
        | Some r -> r
        | None ->
          let r = Sp_metric.distances_from sp u in
          Hashtbl.add rows u r;
          r
      in
      row.(v)
    in
    (Fixture.L_landmark s, dist, ts, tb)
  | other -> invalid_arg ("unknown scheme " ^ other)

let setup_one (ctx : Ctx.t) ~rep spec =
  let m name f = Ctx.measure ctx (Printf.sprintf "%s.%s" name spec.scheme) f in
  let (live, dist, substrate, build) = build_live ctx spec in
  let (warm, freeze) = m "serve.server.freeze" (fun () -> Fixture.freeze live) in
  let file = Filename.concat ctx.Ctx.out_dir (Printf.sprintf "%s.%d.snap" spec.scheme rep) in
  let ((), save) = m "serve.image.save" (fun () -> Server.save warm file) in
  let (loaded, load) = m "serve.image.load" (fun () -> Server.load file) in
  let srv =
    match loaded with
    | Ok t -> t
    | Error e -> raise (Check.Failed ("snapshot_load", spec.scheme ^ ": " ^ e))
  in
  let (work, prepare) =
    m "util.workload.prepare" (fun () ->
        Loop.prepare srv ~seed:(Rng.mix ctx.Ctx.seed 101) ~queries:spec.queries ~zipf_s:spec.zipf_s
          ~route_frac:0.6 ~dist_frac:0.3)
  in
  let res = Loop.results_create spec.queries in
  let ((), first) =
    m "serve.loop.cold_first_batch" (fun () ->
        Loop.run ~batch:spec.queries ~jobs:1 srv work res)
  in
  { spec; live; dist; warm; srv; work; file; cold_digest = Loop.digest res;
    times = { substrate; build; freeze; save; load; prepare; first } }

(* ------------------------------------------------------ correctness *)

let outcome_code = function
  | Ron_routing.Scheme.Delivered -> 0
  | Truncated -> 1
  | Self_forward -> 2
  | Cycled -> 3
  | Dropped -> 4

(* The fixed sample: the workload's first queries, except for landmark,
   whose true distances need one shortest-path row per source — there 48
   workload sources each meet 32 workload targets. *)
let sample_queries b =
  let w = b.work in
  match b.live with
  | Fixture.L_landmark _ ->
    let srcs = 48 in
    Array.init b.spec.sample (fun i ->
        (1, Loop.src_of w (i mod srcs), Loop.dst_of w (i / srcs mod Loop.queries w)))
  | _ ->
    Array.init (min b.spec.sample (Loop.queries w)) (fun i ->
        (Loop.kind_of w i, Loop.src_of w i, Loop.dst_of w i))

(* Serve the sample one query at a time, compare each answer with the live
   scheme's public answer, and return the mean of answer over truth: path
   length for a route, the upper bound for a dist, the found member's
   distance over the closest member's for a locate. *)
let check_sample b =
  let s = b.spec.scheme in
  let sc = Server.scratch_for b.srv in
  let fail i what = raise (Check.Failed ("frozen_matches_live", Printf.sprintf "%s sample %d: %s" s i what)) in
  let sum = ref 0.0 and cnt = ref 0 in
  let add x = sum := !sum +. x; incr cnt in
  Array.iteri
    (fun i (kind, src, dst) ->
      Server.query b.srv sc ~kind ~src ~dst;
      let route_matches (r : Ron_routing.Scheme.result) =
        if outcome_code r.outcome <> sc.Server.r_outcome then fail i "route outcome";
        if r.hops <> sc.Server.r_hops then fail i "route hops";
        if not (Float.equal r.length sc.Server.fbuf.(2)) then fail i "route length";
        if r.max_header_bits <> sc.Server.r_aux then fail i "route header bits"
      in
      (match (b.live, kind) with
      | (Fixture.L_basic l, 0) -> route_matches (Ron_routing.Basic.route l ~src ~dst)
      | (Fixture.L_labelled l, 0) -> route_matches (Ron_routing.Labelled.route l ~src ~dst)
      | (Fixture.L_two_mode l, 0) -> route_matches (Ron_routing.Two_mode.route l ~src ~dst)
      | (Fixture.L_meridian l, 2) ->
        let r = Ron_smallworld.Meridian.closest l ~start:src ~target:dst in
        if r.found <> sc.Server.r_next then fail i "locate found";
        if r.hops <> sc.Server.r_hops then fail i "locate hops";
        if r.measurements <> sc.Server.r_aux then fail i "locate measurements"
      | (Fixture.L_landmark l, 1) ->
        let (lo, hi) = Ron_labeling.Landmark.estimate l src dst in
        if not (Float.equal lo sc.Server.fbuf.(3) && Float.equal hi sc.Server.fbuf.(4)) then
          fail i "landmark bounds"
      | ((Fixture.L_labelled _ | Fixture.L_two_mode _), 1) -> ()
      | _ -> fail i (Printf.sprintf "unexpected kind %d" kind));
      let d = if src = dst then 0.0 else b.dist src dst in
      match kind with
      | 0 -> if d > 0.0 && sc.Server.r_outcome = 0 then add (sc.Server.fbuf.(2) /. d)
      | 1 -> if d > 0.0 then add (sc.Server.fbuf.(4) /. d)
      | _ -> (
          match b.live with
          | Fixture.L_meridian l ->
            let best = Ron_smallworld.Meridian.exact_closest l dst in
            let dbest = if best = dst then 0.0 else b.dist best dst in
            if dbest > 0.0 then
              add ((if sc.Server.r_next = dst then 0.0 else b.dist sc.Server.r_next dst) /. dbest)
          | _ -> ()))
    (sample_queries b);
  Check.pass "frozen_matches_live";
  if !cnt = 0 then nan else !sum /. float_of_int !cnt

(* Two tallies over one pass of the workload. [delivered]: a query fails
   when a route is not delivered, a locate finds no member, or a distance
   bound is not finite. [answered]: a query fails when its answer is
   malformed — an outcome code out of range, a found node that is no node,
   bounds out of order. *)
let tally_results b (res : Loop.results) =
  let n = Server.size b.srv in
  let delivered = ref Arith.tally_zero and answered = ref Arith.tally_zero in
  for i = 0 to Loop.queries b.work - 1 do
    let a = A1.get res.Loop.ra i and x = A1.get res.Loop.rx i and y = A1.get res.Loop.ry i in
    let (ok, well_formed) =
      match Loop.kind_of b.work i with
      | 0 -> (a = 0, a >= 0 && a <= 4)
      | 1 -> (Float.is_finite y, Float.is_finite x && Float.is_finite y && x <= y)
      | _ -> (a >= 0, a >= -1 && a < n)
    in
    delivered := Arith.record !delivered ~ok;
    answered := Arith.record !answered ~ok:well_formed
  done;
  (!delivered, !answered)

(* Mean hops and mean aux count (header bits or measurements) over the
   queries that walk: routes and locates. *)
let hop_counts b (res : Loop.results) =
  let hops = ref 0 and aux = ref 0.0 and walks = ref 0 in
  for i = 0 to Loop.queries b.work - 1 do
    match Loop.kind_of b.work i with
    | 0 ->
      incr walks;
      hops := !hops + A1.get res.Loop.rb i;
      aux := !aux +. A1.get res.Loop.ry i
    | 2 ->
      incr walks;
      hops := !hops + A1.get res.Loop.rb i;
      aux := !aux +. A1.get res.Loop.rx i
    | _ -> ()
  done;
  if !walks = 0 then (0.0, 0.0)
  else (float_of_int !hops /. float_of_int !walks, !aux /. float_of_int !walks)

(* --------------------------------------------------------- serving *)

type served = {
  qps1 : float;
  qpsp : float;
  p50 : float;
  p99 : float;
  stretch : float;
  delivered : Arith.tally;
  answered : Arith.tally;
  query_ns : int;  (* sum of timed Server.query calls *)
  loop1_ns : int;  (* sum of the jobs=1 Loop.run batches over the same queries *)
  colds : (int * int) list;  (* (load, first batch) of each cold start *)
}

let kind_name = function 0 -> "route" | 1 -> "dist" | _ -> "locate"

(* One more cold start from a set-up's saved file: load it and serve the
   first batch, which must match the first cold batch. *)
let cold_again (ctx : Ctx.t) b =
  (* Finish a major cycle first, so the previous cold image is unmapped. *)
  Gc.major ();
  let m name f = Ctx.measure ctx (Printf.sprintf "%s.%s" name b.spec.scheme) f in
  let (loaded, t_load) = m "serve.image.load" (fun () -> Server.load b.file) in
  let srv = match loaded with Ok t -> t | Error e -> raise (Check.Failed ("snapshot_load", e)) in
  let res = Loop.results_create b.spec.queries in
  let ((), t_first) =
    m "serve.loop.cold_first_batch" (fun () -> Loop.run ~batch:b.spec.queries ~jobs:1 srv b.work res)
  in
  Check.require "digest_cold" (Loop.digest res = b.cold_digest) "%s: cold starts disagree" b.spec.scheme;
  (t_load, t_first)

(* Cold starts per scheme during the timed passes, spread over its share
   of the budget so they sample the machine like the rounds do. *)
let cold_repeats = 6

let serve (ctx : Ctx.t) ~budget_ns b =
  let s = b.spec.scheme and w = b.work and srv = b.srv in
  let q = Loop.queries w in
  let r1 = Loop.results_create q and rp = Loop.results_create q in
  let sc = Server.scratch_for srv in
  let lat = Samples.create () and rounds = Ctx.Rounds.create () in
  let by_kind = Array.init 3 (fun _ -> Samples.create ()) in
  let walk_ns = ref 0 and walk_hops = ref 0 in
  let query_ns = ref 0 and loop1_ns = ref 0 in
  let colds = ref [] and next_cold = ref 1 in
  let t0 = Clock.now_ns () in
  while
    Ctx.Rounds.count rounds < min_rounds
    || Samples.length lat < min_latency_samples
    || Clock.now_ns () - t0 < budget_ns
  do
    let ((), d1) =
      Ctx.measure ctx ("serve.loop.run.jobs1." ^ s) (fun () -> Loop.run ~batch:q ~jobs:1 srv w r1)
    in
    let ((), dp) =
      Ctx.measure ctx ("serve.loop.run.jobsN." ^ s) (fun () ->
          Loop.run ~batch:q ~jobs:ctx.Ctx.jobs_par srv w rp)
    in
    if Ctx.Rounds.count rounds = 0 then begin
      let d1g = Loop.digest r1 and dpg = Loop.digest rp in
      Check.require "digest_jobs" (d1g = dpg) "%s: jobs=1 digest %x, jobs=%d digest %x" s d1g
        ctx.Ctx.jobs_par dpg;
      Check.require "digest_cold" (d1g = b.cold_digest) "%s: steady digest %x, cold first batch %x" s
        d1g b.cold_digest;
      let rw = Loop.results_create q in
      Loop.run ~batch:q ~jobs:1 b.warm w rw;
      Check.require "digest_warm" (d1g = Loop.digest rw) "%s: loaded digest %x, in-process %x" s d1g
        (Loop.digest rw)
    end;
    let ((), _) =
      Ctx.measure ctx ("serve.server.query_pass." ^ s) (fun () ->
          for i = 0 to q - 1 do
            let kind = Loop.kind_of w i and src = Loop.src_of w i and dst = Loop.dst_of w i in
            let a = Clock.now_ns () in
            Server.query srv sc ~kind ~src ~dst;
            let dt = Clock.now_ns () - a in
            Samples.push lat dt;
            Samples.push by_kind.(kind) dt;
            query_ns := !query_ns + dt;
            if kind <> 1 then begin
              walk_ns := !walk_ns + dt;
              walk_hops := !walk_hops + sc.Server.r_hops
            end
          done)
    in
    loop1_ns := !loop1_ns + d1;
    let rate ns = float_of_int q /. Ctx.seconds_of_ns ns in
    Ctx.Rounds.add rounds ~rate1:(rate d1) ~ratep:(rate dp);
    if !next_cold <= cold_repeats && Clock.now_ns () - t0 >= !next_cold * budget_ns / (cold_repeats + 1)
    then begin
      colds := cold_again ctx b :: !colds;
      incr next_cold
    end
  done;
  while !next_cold <= cold_repeats do
    colds := cold_again ctx b :: !colds;
    incr next_cold
  done;
  let qps1 = Ctx.Rounds.rate1 rounds and qpsp = Ctx.Rounds.ratep rounds in
  let (p50, p99) = Ctx.p50_p99 ctx s lat in
  Array.iteri
    (fun k smp ->
      if Samples.length smp > 0 then
        Metrics.set
          (Printf.sprintf "serve.server.query_ns.%s.%s" s (kind_name k))
          (Arith.median (Samples.to_floats smp)))
    by_kind;
  let (hops_mean, aux_mean) = hop_counts b r1 in
  Metrics.set ("serve.server.hops_mean." ^ s) hops_mean;
  Metrics.set ("serve.server.aux_mean." ^ s) aux_mean;
  if !walk_hops > 0 then
    Metrics.set ("serve.server.ns_per_hop." ^ s) (float_of_int !walk_ns /. float_of_int !walk_hops);
  Metrics.set ("serve.loop.qps_jobs1." ^ s) qps1;
  Metrics.set ("util.pool.speedup." ^ s) (qpsp /. qps1);
  let words = Loop.minor_words_per_query srv w r1 in
  Metrics.set ("serve.loop.minor_words_per_query." ^ s) words;
  Check.require "minor_words_per_query" (words <= 8.0) "%s: %.2f words per query" s words;
  let stretch = check_sample b in
  let (delivered, answered) = tally_results b r1 in
  Printf.printf "# %s: %d rounds of %d queries, qps jobs=1 %.0f, jobs=%d %.0f, p50 %.0f ns, p99 %.0f ns\n"
    s (Ctx.Rounds.count rounds) q qps1 ctx.Ctx.jobs_par qpsp p50 p99;
  {
    qps1; qpsp; p50; p99; stretch; delivered; answered;
    query_ns = !query_ns - int_of_float (ctx.Ctx.clock_call_ns *. float_of_int (Samples.length lat));
    loop1_ns = !loop1_ns;
    colds = !colds;
  }

(* ------------------------------------------------------- the workload *)

let image_sizes srv =
  let img = Server.image srv in
  let secs =
    Array.to_list (Array.map (fun a -> 8 * A1.dim a) img.Image.isecs)
    @ Array.to_list (Array.map (fun a -> 8 * A1.dim a) img.Image.fsecs)
  in
  let n = Server.size srv in
  (float_of_int (Server.byte_size srv) /. float_of_int n, List.fold_left max 0 secs)

(* Serve every kept scheme for its share of the budget and set the
   workload's serving metrics; returns the answered tally and each
   scheme's cold starts. *)
let serve_all (ctx : Ctx.t) built =
  List.iter
    (fun b ->
      let (bpn, largest) = image_sizes b.srv in
      Metrics.set ("serve.image.bytes_per_node." ^ b.spec.scheme) bpn;
      Metrics.set ("serve.image.largest_section_bytes." ^ b.spec.scheme) (float_of_int largest))
    built;
  Metrics.set "serve.image.snapshot_bytes_per_node"
    (Arith.geomean (Array.of_list (List.map (fun b -> fst (image_sizes b.srv)) built)));
  let budget_ns = int_of_float (ctx.Ctx.seconds *. 1e9) / List.length built in
  let served =
    Array.of_list
      (List.map
         (fun b -> fst (Ctx.measure ctx ("serve." ^ b.spec.scheme) (fun () -> serve ctx ~budget_ns b)))
         built)
  in
  let gm f = Arith.geomean (Array.map f served) in
  Metrics.set "qps" (gm (fun r -> r.qps1));
  Metrics.set "util.pool.qps_parallel" (gm (fun r -> r.qpsp));
  Metrics.set "latency_p50_ns" (gm (fun r -> r.p50));
  Metrics.set "latency_p99_ns" (gm (fun r -> r.p99));
  Metrics.set "stretch_mean" (gm (fun r -> r.stretch));
  let sum f = Array.fold_left (fun acc r -> Arith.tally_add acc (f r)) Arith.tally_zero served in
  Metrics.set "success_frac" (Arith.success_frac (sum (fun r -> r.delivered)));
  let qn = Array.fold_left (fun acc r -> acc + r.query_ns) 0 served in
  let ln = Array.fold_left (fun acc r -> acc + r.loop1_ns) 0 served in
  Metrics.set "serve.loop.overhead_frac" (1.0 -. (float_of_int qn /. float_of_int ln));
  (sum (fun r -> r.answered), Array.map (fun r -> r.colds) served)

let setup_rep (ctx : Ctx.t) specs rep =
  Gc.full_major ();
  fst (Ctx.measure ctx "setup" (fun () -> List.map (setup_one ctx ~rep) specs))

(* The first set-up is served, with cold starts from its files spread over
   the timed passes. Once the peak RSS has been read, further repetitions
   time set-up again; cold_start_s is the median over every cold start of
   a scheme. *)
let run (ctx : Ctx.t) specs =
  let first = setup_rep ctx specs 0 in
  let times0 = Array.of_list (List.map (fun b -> b.times) first) in
  let names = List.map (fun b -> (b.spec.scheme, b.spec.lib)) first in
  let (answered, again) = serve_all ctx first in
  Ctx.record_peak_rss ();
  let colds = Array.of_list (List.mapi (fun i b -> (b.times.load, b.times.first) :: again.(i)) first) in
  List.iter (fun b -> Sys.remove b.file) first;
  let reps =
    Array.append [| times0 |]
      (Array.init (ctx.Ctx.setup_reps - 1) (fun i ->
           let built = setup_rep ctx specs (i + 1) in
           List.iter (fun b -> Sys.remove b.file) built;
           Array.of_list (List.map (fun b -> b.times) built)))
  in
  Array.iter
    (fun ts -> Array.iteri (fun i t -> colds.(i) <- (t.load, t.first) :: colds.(i)) ts)
    (Array.sub reps 1 (Array.length reps - 1));
  let med f = Arith.median (Array.map f reps) in
  let sum f ts = Ctx.seconds_of_ns (Array.fold_left (fun acc t -> acc + f t) 0 ts) in
  let setup t = t.substrate + t.build + t.freeze + t.save + t.load + t.prepare in
  ctx.Ctx.last_setup_ns := Array.fold_left (fun acc t -> acc + setup t) 0 reps.(Array.length reps - 1);
  Metrics.set "setup_s" (med (sum setup));
  Metrics.set "graph.substrate_s" (med (sum (fun t -> t.substrate)));
  Metrics.set "serve.image.save_s" (med (sum (fun t -> t.save)));
  Metrics.set "util.workload.prepare_s" (med (sum (fun t -> t.prepare)));
  let cold_med f i = Arith.median (Array.of_list (List.map (fun c -> Ctx.seconds_of_ns (f c)) colds.(i))) in
  let over_schemes f = List.mapi (fun i _ -> f i) names in
  let total l = List.fold_left ( +. ) 0.0 l in
  Metrics.set "serve.image.load_s" (total (over_schemes (cold_med fst)));
  Metrics.set "serve.loop.cold_first_batch_s" (total (over_schemes (cold_med snd)));
  List.iteri
    (fun i (s, lib) ->
      Printf.printf "# %s cold start: load %.2f ms, first batch %.2f ms, medians of %d\n" s
        (1e3 *. cold_med fst i) (1e3 *. cold_med snd i) (List.length colds.(i));
      let nth_med f = med (fun ts -> Ctx.seconds_of_ns (f ts.(i))) in
      Metrics.set (Printf.sprintf "%s.build_s.%s" lib s) (nth_med (fun t -> t.build));
      Metrics.set ("serve.server.freeze_s." ^ s) (nth_med (fun t -> t.freeze)))
    names;
  Metrics.set "cold_start_s"
    (Arith.geomean (Array.of_list (over_schemes (cold_med (fun (l, f) -> l + f)))));
  answered
