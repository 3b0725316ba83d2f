(* Self-tests of the benchmark's arithmetic: the percentile tail rule,
   medians, geometric means, failure accounting and span self time. *)

let close = Alcotest.float 1e-9
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  (* p99 of 1000 samples sits at rank 990 and leaves exactly 10 beyond. *)
  Alcotest.(check int) "rank p99 n=1000" 990 (Arith.rank ~n:1000 0.99);
  Alcotest.(check bool) "p99 n=1000 ok" true (Arith.percentile_ok ~n:1000 0.99);
  Alcotest.(check bool) "p99 n=999 refused" false (Arith.percentile_ok ~n:999 0.99);
  Alcotest.(check bool) "p50 n=20 ok" true (Arith.percentile_ok ~n:20 0.5);
  Alcotest.(check bool) "p50 n=19 refused" false (Arith.percentile_ok ~n:19 0.5);
  Alcotest.(check bool) "no samples refused" false (Arith.percentile_ok ~n:0 0.5);
  Alcotest.(check (option close)) "p99 value" (Some 990.0) (Arith.percentile (ints 1000) 0.99);
  Alcotest.(check (option close)) "p50 value" (Some 500.0) (Arith.percentile (ints 1000) 0.5);
  Alcotest.(check (option close)) "p99 of 999 refused" None (Arith.percentile (ints 999) 0.99);
  Alcotest.(check int) "rank p100" 1000 (Arith.rank ~n:1000 1.0)

let test_median () =
  Alcotest.check close "odd" 2.0 (Arith.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (Arith.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Arith.median [||]))

let test_geomean () =
  Alcotest.check close "two" 2.0 (Arith.geomean [| 1.0; 4.0 |]);
  Alcotest.check close "three" 4.0 (Arith.geomean [| 2.0; 4.0; 8.0 |]);
  (* A k-fold gain in one of four parts moves the mean by k^(1/4). *)
  let base = [| 3.0; 5.0; 7.0; 11.0 |] in
  let gained = [| 3.0 *. 16.0; 5.0; 7.0; 11.0 |] in
  Alcotest.check close "k^(1/4)" 2.0 (Arith.geomean gained /. Arith.geomean base);
  Alcotest.(check bool) "zero is nan" true (Float.is_nan (Arith.geomean [| 1.0; 0.0 |]));
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Arith.geomean [||]))

let test_failed_frac () =
  let t =
    List.fold_left (fun t ok -> Arith.record t ~ok) Arith.tally_zero [ true; false; true; true ]
  in
  Alcotest.(check int) "attempted" 4 t.Arith.attempted;
  Alcotest.(check int) "failed" 1 t.Arith.failed;
  Alcotest.check close "failed_frac" 0.25 (Arith.failed_frac t);
  Alcotest.check close "success_frac" 0.75 (Arith.success_frac t);
  let u = Arith.tally_add t { Arith.attempted = 6; failed = 0 } in
  Alcotest.check close "pooled" 0.1 (Arith.failed_frac u);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Arith.failed_frac Arith.tally_zero))

let test_self_time () =
  Alcotest.(check int) "no children" 100 (Arith.self_time ~start:0 ~stop:100 []);
  (* Overlapping children count once. *)
  Alcotest.(check int) "overlap" 50
    (Arith.self_time ~start:0 ~stop:100 [ (10, 30); (20, 50); (60, 70) ]);
  (* A child running past its parent is clipped to the parent. *)
  Alcotest.(check int) "clipped" 90 (Arith.self_time ~start:0 ~stop:100 [ (90, 120) ]);
  Alcotest.(check int) "outside" 100 (Arith.self_time ~start:0 ~stop:100 [ (100, 130); (-5, 0) ]);
  Alcotest.(check int) "nested order" 0 (Arith.self_time ~start:0 ~stop:10 [ (5, 10); (0, 5) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "percentile tail rule" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "failed_frac accounting" `Quick test_failed_frac;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
