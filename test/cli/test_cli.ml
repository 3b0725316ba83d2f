(* The ron_cli contract, end to end on small inputs: user mistakes exit 2
   (a bad flag value the program checks) or 124 (a value cmdliner rejects)
   with a message naming the problem, never 125 (uncaught exception); the
   read-side subcommands accept what the write side produces and reject
   damaged copies. *)

let exe = "../../bin/ron_cli.exe"
let dir = Filename.temp_dir "ron_cli_test" ""
let path name = Filename.concat dir name

let read file = In_channel.with_open_bin file In_channel.input_all
let write file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Run ron_cli with [args]; returns (exit code, stdout, stderr). *)
let ron args =
  let out = path "stdout" and err = path "stderr" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" exe
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  (code, read out, read err)

let expect ?(stderr_has = "") ?(stdout_has = "") code args =
  let got, out, err = ron args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") code got;
  if stderr_has <> "" && not (contains err stderr_has) then
    Alcotest.failf "%s: stderr %S lacks %S" cmd err stderr_has;
  if stdout_has <> "" && not (contains out stdout_has) then
    Alcotest.failf "%s: stdout lacks %S" cmd stdout_has

let user_errors () =
  let bad = path "no-such-dir/out" in
  write (path "corrupt.snap") "not a snapshot at all";
  List.iter
    (fun (code, flag, args) -> expect code ~stderr_has:flag args)
    [
      (2, "--jobs", [ "inspect"; "-n"; "16"; "--jobs"; "0" ]);
      (124, "expline", [ "inspect"; "-n"; "16"; "-m"; "bogus" ]);
      (124, "trivial", [ "route"; "-n"; "16"; "--scheme"; "bogus" ]);
      (124, "thm42", [ "fault"; "-n"; "16"; "--scheme"; "metric" ]);
      (124, "thm42", [ "churn"; "-n"; "16"; "--scheme"; "bogus" ]);
      (124, "structures", [ "smallworld"; "-n"; "16"; "--model"; "zz" ]);
      (124, "landmark", [ "serve"; "--scheme"; "bogus" ]);
      (2, "--load", [ "serve"; "--load"; path "missing.snap" ]);
      (2, "--load", [ "serve"; "--load"; path "corrupt.snap" ]);
      (2, "--trace", [ "inspect"; "-n"; "16"; "--trace"; bad ]);
      (2, "--telemetry", [ "inspect"; "-n"; "16"; "--telemetry"; bad ]);
      (2, "--metrics-out", [ "inspect"; "-n"; "16"; "--metrics-out"; bad ]);
      (2, "--profile", [ "inspect"; "-n"; "16"; "--profile"; bad ]);
      (2, "--expo", [ "inspect"; "-n"; "16"; "--expo"; bad ]);
      (2, "--slo-out", [ "serve"; "-n"; "16"; "--slo"; "delivery>=0.5"; "--slo-out"; bad ]);
      (2, "--telemetry-interval", [ "inspect"; "-n"; "16"; "--telemetry-interval"; "0" ]);
    ]

let check_trace () =
  let trace = path "route.jsonl" in
  expect 0 [ "route"; "-m"; "grid"; "-n"; "36"; "-p"; "50"; "--trace"; trace ];
  expect 0 ~stdout_has:"well-formed events" [ "check"; "trace"; trace ];
  let s = read trace in
  write (path "truncated.jsonl") (String.sub s 0 (String.length s / 2));
  expect 1 ~stderr_has:"truncated.jsonl" [ "check"; "trace"; path "truncated.jsonl" ]

let serve_artifacts () =
  let slo = path "slo.json" and expo = path "serve.prom" and tel = path "tel.jsonl" in
  expect 0
    [
      "serve"; "--scheme"; "basic"; "-n"; "36"; "--queries"; "2000"; "--slo"; "delivery>=0.5";
      "--slo-out"; slo; "--flight"; "2"; "--expo"; expo; "--telemetry"; tel;
      "--telemetry-interval"; "1";
    ];
  expect 0 ~stdout_has:"well-formed exposition samples" [ "check"; "expo"; expo ];
  expect 0 ~stdout_has:"well-formed telemetry samples" [ "check"; "telemetry"; tel ];
  expect 0 ~stdout_has:"\"max_burn_rate\"" [ "report"; "slo"; slo; "--json" ];
  expect 0 ~stdout_has:"\"rss_kb\"" [ "report"; "telemetry"; tel; "--json" ]

let diff_exit_codes () =
  let report stretch =
    Printf.sprintf {|{"schema":"ron-bench/1","table1":[{"n":64,"stretch_max":%s,"build_s":0.5}]}|}
      stretch
  in
  write (path "a.json") (report "1.25");
  write (path "b.json") (report "1.5");
  expect 0 ~stdout_has:"verdict: ok" [ "diff"; path "a.json"; path "a.json" ];
  expect 1 ~stdout_has:"MISMATCH" [ "diff"; path "a.json"; path "b.json" ];
  expect 0 ~stdout_has:"warn-only" [ "diff"; path "a.json"; path "b.json"; "--warn-only" ]

let () =
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      Alcotest.run "cli"
        [
          ( "contract",
            [
              Alcotest.test_case "user errors exit 2 or 124, never 125" `Quick user_errors;
              Alcotest.test_case "check trace accepts a run, rejects a truncated copy" `Quick
                check_trace;
              Alcotest.test_case "check and report the serve artifacts" `Quick serve_artifacts;
              Alcotest.test_case "diff exit codes" `Quick diff_exit_codes;
            ] );
        ])
