open Cmdliner

let ns_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

type telemetry = { file : string option; interval_ms : int }

type t = {
  trace : string option;
  metrics : string option;
  profile : string option;
  telemetry : telemetry;
  expo : string option;
  jobs : int option;
}

let file_arg name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let telemetry_term =
  let file =
    file_arg "telemetry"
      "Write periodic telemetry snapshots (counter deltas, gauges, bounded-histogram \
       summaries, GC and RSS) to $(docv) as JSONL during the run."
  in
  let interval_ms =
    Arg.(
      value & opt int 500
      & info [ "telemetry-interval" ] ~docv:"MS"
          ~doc:"Telemetry sampling interval in milliseconds (default 500).")
  in
  Term.(const (fun file interval_ms -> { file; interval_ms }) $ file $ interval_ms)

let term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel construction (overrides RON_JOBS). Results are \
             bit-identical at every job count.")
  in
  Term.(
    const (fun trace metrics profile telemetry expo jobs ->
        { trace; metrics; profile; telemetry; expo; jobs })
    $ file_arg "trace" "Write JSONL trace events to $(docv)."
    $ file_arg "metrics-out"
        "Write an observability snapshot (counters, histograms, per-query costs) to $(docv) \
         as JSON."
    $ file_arg "profile"
        "Write a hierarchical phase profile (wall time and GC deltas per construction/query \
         phase) to $(docv) as JSON."
    $ telemetry_term
    $ file_arg "expo"
        "Write the observability registry (counters, gauges, bucketed histograms, build \
         info) to $(docv) in Prometheus text format — atomically rewritten on every \
         telemetry tick (with $(b,--telemetry)) and once more at exit."
    $ jobs)

(* An output path is checked before any construction so that a typo
   fails in milliseconds, not after the run. Opening for append creates
   nothing that was not there and truncates nothing that was. *)
let check_writable flag = function
  | None -> Ok ()
  | Some file -> (
    let existed = Sys.file_exists file in
    match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 file with
    | exception Sys_error e -> Error (Printf.sprintf "%s: %s" flag e)
    | oc ->
      close_out oc;
      if not existed then Sys.remove file;
      Ok ())

let check_telemetry tel =
  if tel.interval_ms < 1 then
    Error
      (Printf.sprintf "--telemetry-interval %d: the interval must be >= 1 (milliseconds)"
         tel.interval_ms)
  else check_writable "--telemetry" tel.file

let start_telemetry ?expo tel =
  Option.iter
    (fun file ->
      Ron_obs.Telemetry.start ~clock:ns_clock
        ~interval:(Int64.of_int (tel.interval_ms * 1_000_000))
        ?expo
        (Ron_obs.Trace.channel_sink (open_out file)))
    tel.file

let ( let* ) = Result.bind

let check o =
  let* () =
    match o.jobs with
    | Some j when j < 1 -> Error (Printf.sprintf "--jobs %d: must be >= 1" j)
    | _ -> Ok ()
  in
  let* () = check_telemetry o.telemetry in
  let* () = check_writable "--trace" o.trace in
  let* () = check_writable "--metrics-out" o.metrics in
  let* () = check_writable "--profile" o.profile in
  (* The exposition is written up front: the first atomic write exercises
     both the temp file and the rename. *)
  match o.expo with
  | Some file -> ( try Ok (Ron_obs.Expo.write file) with Sys_error e -> Error ("--expo: " ^ e))
  | None -> Ok ()

(* The sinks are closed and the snapshot, exposition and profile written
   also when [f] raises, so a crashed run still leaves its artifacts on
   disk. *)
let with_obs o f =
  match check o with
  | Error e ->
    prerr_endline e;
    2
  | Ok () ->
    Ron_util.Pool.set_default_jobs o.jobs;
    Option.iter
      (fun file ->
        Ron_obs.Trace.configure ~clock:ns_clock (Ron_obs.Trace.channel_sink (open_out file)))
      o.trace;
    if o.profile <> None then Ron_obs.Profile.enable ~clock:ns_clock ();
    start_telemetry ?expo:o.expo o.telemetry;
    (* Telemetry and exposition need the probes on: counters, gauges and
       bucketed histograms are all recorded behind [Probe.on]. *)
    if o.trace <> None || o.metrics <> None || o.telemetry.file <> None || o.expo <> None then
      Ron_obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Option.iter Ron_obs.write_snapshot o.metrics;
        Option.iter Ron_obs.Expo.write o.expo;
        Option.iter
          (fun file ->
            Ron_obs.Profile.write file;
            Ron_obs.Profile.disable ())
          o.profile;
        Ron_obs.Telemetry.stop ();
        Ron_obs.Trace.stop ())
      f
