(* The benchmark's entry point: one workload, one seed, one run.

     main.exe --workload serve-hops|serve-landmark|churn-rings --seed N
              --seconds S --trace 0|1

   An untraced run (--trace 0) measures the end-to-end metrics. A traced
   run (--trace 1) runs the workload twice on half the budget each: once
   untraced, for the overhead baseline, then with spans, Probe counters
   and Profile phases on; it reports the per-layer metrics and the
   tracing overhead. The last line of standard output is the result
   object; a failed correctness check exits 1 naming the check. *)

module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module Pool = Ron_util.Pool

let workloads = [ "serve-hops"; "serve-landmark"; "churn-rings" ]

(* Set-ups per untraced run; setup_s is their median. *)
let setup_reps = function "serve-hops" -> 3 | _ -> 5

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-hops|serve-landmark|churn-rings --seed N --seconds S \
     --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* Result, span and profile files go here, inside the checkout. *)
let out_dir = ".perfbench_out"

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads -> workload := Some w; go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.0) (float_of_string_opt s) ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | (Some workload, Some seed, Some seconds, Some trace) ->
    { workload; seed; seconds; trace }
  | _ -> usage ()

let env_vars = [ "RON_JOBS"; "RON_ORACLE_ROWS"; "RON_SP_MODE" ]

let header a (cal : Clock.calibration) ~nproc ~jobs_par =
  let set =
    List.filter_map
      (fun v -> Option.map (fun x -> Printf.sprintf "%S:%S" v x) (Sys.getenv_opt v))
      env_vars
  in
  Printf.sprintf
    "{\"env\":{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"nproc\":%d,\"jobs\":[1,%d],\
     \"ocaml\":%S,\"word_size\":%d,\"clock_step_ns\":%d,\"clock_call_ns\":%.2f,\"env_set\":{%s}}}"
    a.workload a.seed a.seconds a.trace nproc jobs_par Sys.ocaml_version Sys.word_size cal.step_ns
    cal.call_ns (String.concat "," set)

let run_workload (ctx : Ctx.t) =
  match ctx.Ctx.workload with
  | "serve-hops" -> Serve_wl.run ctx Serve_wl.hops_specs
  | "serve-landmark" -> Serve_wl.run ctx Serve_wl.landmark_specs
  | _ -> Churn_wl.run ctx

(* Profile phase self time per set-up, summed over every path ending in
   [suffix]. *)
let phase_self_s ~setups stats suffix =
  List.fold_left
    (fun acc (s : Profile.stat) ->
      if String.ends_with ~suffix s.path then acc +. (Int64.to_float s.self_ns *. 1e-9) else acc)
    0.0 stats
  /. float_of_int setups

(* Two set-ups per half: the first set-up of a process also grows the
   heap, so the overhead compares the second ones. *)
let traced_run a base =
  let half = { base with Ctx.seconds = base.Ctx.seconds /. 2.0; setup_reps = 2 } in
  ignore (run_workload half);
  let get name = Option.value ~default:nan (Metrics.get name) in
  let setup_u = !(half.Ctx.last_setup_ns) and qps_u = get "qps" in
  half.Ctx.spans.Spans.on <- true;
  Probe.on := true;
  Profile.reset ();
  Profile.enable ~clock:Monotonic_clock.now ();
  let tally =
    Fun.protect
      ~finally:(fun () ->
        Probe.on := false;
        half.Ctx.spans.Spans.on <- false)
      (fun () -> run_workload half)
  in
  let stats = Profile.stats () in
  Profile.disable ();
  let phase = phase_self_s ~setups:half.Ctx.setup_reps stats in
  Metrics.set "profile.construct.structure_s" (phase "construct.structure");
  Metrics.set "profile.construct.dls.labels_s" (phase "construct.dls/labels");
  Metrics.set "profile.construct.dls.virtuals_s" (phase "construct.dls/virtuals");
  Metrics.set "trace.setup_overhead_frac"
    ((float_of_int !(half.Ctx.last_setup_ns) /. float_of_int setup_u) -. 1.0);
  Metrics.set "trace.qps_overhead_frac" (1.0 -. (get "qps" /. qps_u));
  let spans = half.Ctx.spans in
  Metrics.set "trace.spans" (float_of_int (List.length (Spans.spans spans)));
  let base_name = Printf.sprintf "%s-seed%d" a.workload a.seed in
  Spans.write_jsonl spans (Filename.concat out_dir (base_name ^ ".spans.jsonl"));
  Profile.write (Filename.concat out_dir (base_name ^ ".profile.json"));
  Printf.printf "# self time by span (traced half), ms: count total self\n";
  List.iter
    (fun (name, (count, total, self)) ->
      Printf.printf "#   %-40s %6d %10.3f %10.3f\n" name count (float_of_int total *. 1e-6)
        (float_of_int self *. 1e-6))
    (Spans.by_name spans);
  tally

let () =
  let a = parse Sys.argv in
  let nproc = Domain.recommended_domain_count () in
  let jobs_par = max 1 (min nproc 2) in
  (* Constructions run at the parallel job count too, whatever RON_JOBS
     says; every Loop.run and route batch passes its jobs explicitly. *)
  Pool.set_default_jobs (Some jobs_par);
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let cal = Clock.calibrate () in
  let hdr = header a cal ~nproc ~jobs_par in
  print_endline hdr;
  Metrics.set "clock.step_ns" (float_of_int cal.step_ns);
  Metrics.set "clock.call_ns" cal.call_ns;
  let ctx =
    {
      Ctx.workload = a.workload;
      seed = a.seed;
      seconds = a.seconds;
      setup_reps = setup_reps a.workload;
      jobs_par;
      clock_call_ns = cal.call_ns;
      last_setup_ns = ref 0;
      out_dir;
      spans = Spans.create ~run_id:(Printf.sprintf "%s-%d-%d" a.workload a.seed (Clock.now_ns ()));
    }
  in
  match if a.trace then traced_run a ctx else run_workload ctx with
  | exception Check.Failed (name, msg) ->
    Printf.eprintf "CHECK FAILED [%s]: %s\n%!" name msg;
    exit 1
  | tally ->
    let metrics = Metrics.to_json ~traced:a.trace in
    List.iter
      (fun (m : Metrics.def) ->
        match Metrics.get m.name with
        | Some v -> Printf.printf "# %-48s %16.6g %s\n" m.name v m.unit
        | None -> ())
      (if a.trace then Metrics.per_layer else Metrics.end_to_end);
    Printf.printf "# checks passed: %s\n" (String.concat " " (List.rev !Check.passed));
    let result =
      Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
        (tally.Arith.failed = 0) tally.Arith.attempted tally.Arith.failed metrics
    in
    let oc =
      open_out
        (Filename.concat out_dir
           (Printf.sprintf "%s-seed%d-trace%d.result.json" a.workload a.seed (Bool.to_int a.trace)))
    in
    output_string oc (hdr ^ "\n" ^ result ^ "\n");
    close_out oc;
    print_endline result
