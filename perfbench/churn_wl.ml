(* The churn-rings workload: live Thm 2.1 Basic on a 16x16 grid under
   seeded join/leave schedules (rate 0.05 each), applied in epochs. Four
   replicas, each with its own schedule, live set and Ring_repair, share
   the one built scheme; averaging over them keeps one unlucky schedule
   from deciding the delivery rate. After each epoch's Ring_repair writes,
   the live (src, dst) pairs are routed with Basic.route_wrapped through
   Churn.wrapper, in rounds: one batch at jobs=1, one at the parallel job
   count, then a sequential pass timing each route on its own. *)

module Churn = Ron_churn.Churn
module Basic = Ron_routing.Basic
module Scheme = Ron_routing.Scheme
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Rng = Ron_util.Rng
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Counter = Ron_obs.Counter
module Samples = Ctx.Samples

let side = 16
let rate = 0.05
let replicas = 4
let slots = 750
let epochs = 6  (* per replica *)
let pair_count = 1500

type replica = { sched : Churn.Schedule.t; st : Churn.state; rr : Churn.Ring_repair.t }

(* Set-up and cold-start times of one repetition, in nanoseconds. The
   live scheme has no snapshot: a cold start rebuilds it and routes the
   first batch. *)
type times = { setup : int; cold : int; substrate : int; build : int; create : int }

type built = {
  sp : Sp_metric.t;
  b : Basic.t;
  replicas : replica array;
  pairs : (int * int) array;
  times : times;
}

let live_pairs st pairs =
  List.filter (fun (u, v) -> Churn.is_live st u && Churn.is_live st v) (Array.to_list pairs)
  |> Array.of_list

let route_all ?jobs st b pairs =
  let w = Churn.wrapper st in
  Pool.map ?jobs (fun (src, dst) -> Basic.route_wrapped w b ~src ~dst) pairs

let setup_one (ctx : Ctx.t) =
  let m name f = Ctx.measure ctx name f in
  let (sp, substrate) =
    m "graph.substrate.basic" (fun () ->
        Sp_metric.create ~jobs:ctx.Ctx.jobs_par (Graph_gen.grid side side))
  in
  let (b, build) = m "routing.build.basic" (fun () -> Basic.build sp ~delta:0.25) in
  let n = side * side in
  let ((scheds, pairs), prepare) =
    m "churn.prepare" (fun () ->
        let scheds =
          Array.init replicas (fun r ->
              Churn.Schedule.make ~seed:(Rng.mix (Rng.mix ctx.Ctx.seed 7) r) ~n ~slots
                ~join_rate:rate ~leave_rate:rate ())
        in
        let rng = Rng.create (Rng.mix ctx.Ctx.seed 11) in
        let pairs =
          Array.init pair_count (fun _ ->
              let u = Rng.int rng n in
              let v = (u + 1 + Rng.int rng (n - 1)) mod n in
              (u, v))
        in
        (scheds, pairs))
  in
  let (replicas, create) =
    m "churn.create" (fun () ->
        Array.map
          (fun sched ->
            let st = Churn.state_of_schedule sched in
            { sched; st; rr = Churn.Ring_repair.create st (Basic.substrate b) (Basic.rings_collection b) })
          scheds)
  in
  let st = replicas.(0).st in
  let (_, first) =
    m "routing.route_batch.first" (fun () -> route_all ~jobs:1 st b (live_pairs st pairs))
  in
  let times =
    { setup = substrate + build + prepare + create; cold = substrate + build + create + first;
      substrate; build; create }
  in
  { sp; b; replicas; pairs; times }

let same_route (a : Scheme.result) (c : Scheme.result) =
  a.outcome = c.outcome && a.hops = c.hops && Float.equal a.length c.length

(* Apply each replica's schedule epoch by epoch, routing the live pairs
   after each epoch; sets the workload's churn and routing metrics and
   returns the answered tally. *)
let epochs_under_churn (ctx : Ctx.t) x =
  let rebuilds0 = Counter.value Probe.churn_rebuilds in
  let stale0 = Counter.value Probe.churn_stale_hits and det0 = Counter.value Probe.churn_detours in
  let hops0 = Counter.value Probe.route_hops and scan0 = Counter.value Probe.ring_members_scanned in
  let leave = Samples.create ~capacity:4096 () and join = Samples.create ~capacity:4096 () in
  let cost = ref Churn.zero_cost in
  let lat = Samples.create () and rounds = Ctx.Rounds.create () in
  let delivered = ref Arith.tally_zero and outcomes = Hashtbl.create 8 in
  let stretch_sum = ref 0.0 and stretch_n = ref 0 and routed = ref 0 in
  (* Start the timed epochs from a collected heap, not from set-up's garbage. *)
  Gc.full_major ();
  let budget_ns = int_of_float (ctx.Ctx.seconds *. 1e9) / (replicas * epochs) in
  let epoch rp e =
    let lo = e * slots / epochs and hi = (e + 1) * slots / epochs in
    Array.iter
      (fun (ev : Churn.Schedule.event) ->
        if ev.slot >= lo && ev.slot < hi then begin
          let v = ev.node in
          let c =
            match ev.kind with
            | Churn.Schedule.Leave ->
              Churn.mark_leave rp.st v;
              let (c, dt) = Ctx.measure ctx "churn.leave" (fun () -> Churn.Ring_repair.leave rp.rr v) in
              Samples.push leave dt;
              c
            | Churn.Schedule.Join ->
              Churn.mark_join rp.st v;
              let (c, dt) = Ctx.measure ctx "churn.join" (fun () -> Churn.Ring_repair.join rp.rr v) in
              Samples.push join dt;
              c
          in
          cost := Churn.add_cost !cost c
        end)
      (Churn.Schedule.events rp.sched);
    let stale = Churn.Ring_repair.stale_members rp.rr in
    Check.require "stale_members_zero" (stale = 0) "epoch %d: %d stale ring members" e stale;
    let rb = Counter.value Probe.churn_rebuilds in
    Check.require "no_rebuilds" (rb = rebuilds0) "epoch %d: churn.rebuilds moved %d -> %d" e rebuilds0 rb;
    let live = live_pairs rp.st x.pairs in
    let np = Array.length live in
    let t0 = Clock.now_ns () in
    let first = ref true in
    while !first || Clock.now_ns () - t0 < budget_ns do
      let (r1, d1) =
        Ctx.measure ctx "routing.route_batch.jobs1" (fun () -> route_all ~jobs:1 rp.st x.b live)
      in
      let (rpar, dp) =
        Ctx.measure ctx "routing.route_batch.jobsN" (fun () ->
            route_all ~jobs:ctx.Ctx.jobs_par rp.st x.b live)
      in
      let w = Churn.wrapper rp.st in
      let (_, _) =
        Ctx.measure ctx "routing.route_pass" (fun () ->
            Array.iter
              (fun (src, dst) ->
                let a = Clock.now_ns () in
                ignore (Sys.opaque_identity (Basic.route_wrapped w x.b ~src ~dst));
                Samples.push lat (Clock.now_ns () - a))
              live)
      in
      routed := !routed + (3 * np);
      if !first then begin
        Check.require "routes_jobs_invariant"
          (Array.for_all2 same_route r1 rpar)
          "epoch %d: jobs=1 and jobs=%d routes differ" e ctx.Ctx.jobs_par;
        (* Each live pair counts once per epoch: later rounds repeat it. *)
        Array.iteri
          (fun k (r : Scheme.result) ->
            let (src, dst) = live.(k) in
            if r.delivered then begin
              stretch_sum := !stretch_sum +. (r.length /. Sp_metric.dist x.sp src dst);
              incr stretch_n
            end;
            delivered := Arith.record !delivered ~ok:r.delivered;
            let o = Scheme.outcome_string r.outcome in
            Hashtbl.replace outcomes o (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes o)))
          r1;
        first := false
      end;
      let rate ns = float_of_int np /. Ctx.seconds_of_ns ns in
      Ctx.Rounds.add rounds ~rate1:(rate d1) ~ratep:(rate dp)
    done
  in
  Array.iter (fun rp -> for e = 0 to epochs - 1 do epoch rp e done) x.replicas;
  let qps1 = Ctx.Rounds.rate1 rounds and qpsp = Ctx.Rounds.ratep rounds in
  Metrics.set "qps" qps1;
  Metrics.set "util.pool.qps_parallel" qpsp;
  Metrics.set "util.pool.speedup.churn" (qpsp /. qps1);
  let (p50, p99) = Ctx.p50_p99 ctx "churn routes" lat in
  Metrics.set "latency_p50_ns" p50;
  Metrics.set "latency_p99_ns" p99;
  Metrics.set "routing.route_wrapped_us" (p50 *. 1e-3);
  Metrics.set "success_frac" (Arith.success_frac !delivered);
  Printf.printf "# churn: %d rounds, qps jobs=1 %.0f, jobs=%d %.0f, p50 %.0f ns, p99 %.0f ns, outcomes:%s\n"
    (Ctx.Rounds.count rounds) qps1 ctx.Ctx.jobs_par qpsp p50 p99
    (String.concat ""
       (List.sort compare
          (Hashtbl.fold (fun o c acc -> Printf.sprintf " %s=%d" o c :: acc) outcomes [])));
  Metrics.set "stretch_mean" (!stretch_sum /. float_of_int !stretch_n);
  let us s = Array.map (fun x -> x *. 1e-3) (Samples.to_floats s) in
  let nl = Samples.length leave and nj = Samples.length join in
  if nl > 0 then begin
    Metrics.set "churn.leave_us_p50" (Arith.median (us leave));
    Metrics.set "churn.leave_us_mean" (Arith.mean (us leave))
  end;
  if nj > 0 then begin
    Metrics.set "churn.join_us_p50" (Arith.median (us join));
    Metrics.set "churn.join_us_mean" (Arith.mean (us join))
  end;
  let nev = nl + nj in
  Check.require "churn_events" (nev > 0) "the schedule produced no events";
  let repair_s =
    (Array.fold_left ( +. ) 0.0 (us leave) +. Array.fold_left ( +. ) 0.0 (us join)) *. 1e-6
  in
  Metrics.set "churn.repair_events_per_s" (float_of_int nev /. repair_s);
  Metrics.set "churn.updates_per_event" (float_of_int !cost.Churn.updates /. float_of_int nev);
  Metrics.set "churn.refills_per_event" (float_of_int !cost.Churn.refills /. float_of_int nev);
  Metrics.set "churn.stale_members_after"
    (float_of_int
       (Array.fold_left (fun acc rp -> acc + Churn.Ring_repair.stale_members rp.rr) 0 x.replicas));
  (* Probe counters move only while the traced run has them switched on. *)
  if !Probe.on then begin
    let per name c0 = float_of_int (Counter.value name - c0) /. float_of_int !routed in
    let stale = per Probe.churn_stale_hits stale0 and det = per Probe.churn_detours det0 in
    Metrics.set "routing.stale_hits_per_query" stale;
    Metrics.set "routing.detours_per_query" det;
    if stale > 0.0 then Metrics.set "routing.detour_success" (det /. stale);
    Metrics.set "routing.hops_per_query" (per Probe.route_hops hops0);
    Metrics.set "routing.ring_members_scanned_per_query" (per Probe.ring_members_scanned scan0)
  end;
  (* Every route returns a well-formed outcome; an undelivered one counts
     against success_frac, not as a failed operation. *)
  { !delivered with Arith.failed = 0 }

let setup_rep (ctx : Ctx.t) =
  Gc.full_major ();
  fst (Ctx.measure ctx "setup" (fun () -> setup_one ctx))


(* The first set-up is measured under churn. Further repetitions only time
   set-up again, after the peak RSS of building and serving has been read. *)
let run (ctx : Ctx.t) =
  let x = setup_rep ctx in
  let times0 = x.times in
  let answered = epochs_under_churn ctx x in
  Ctx.record_peak_rss ();
  let reps =
    Array.append [| times0 |]
      (Array.init (ctx.Ctx.setup_reps - 1) (fun _ -> (setup_rep ctx).times))
  in
  let med f = Arith.median (Array.map (fun r -> Ctx.seconds_of_ns (f r)) reps) in
  ctx.Ctx.last_setup_ns := reps.(Array.length reps - 1).setup;
  Metrics.set "setup_s" (med (fun r -> r.setup));
  Metrics.set "cold_start_s" (med (fun r -> r.cold));
  Metrics.set "graph.substrate_s" (med (fun r -> r.substrate));
  Metrics.set "routing.build_s.basic" (med (fun r -> r.build));
  Metrics.set "churn.create_s" (med (fun r -> r.create));
  answered
