.PHONY: all build test check bench bench-json bench-diff scale-smoke trace-smoke fault-smoke churn-smoke profile-smoke telemetry-smoke serve-smoke slo-smoke clean

# Relative slowdown tolerated by bench-diff before a timing key fails
# (0.5 = 50% slower); override per-run: make bench-diff RON_BENCH_DIFF_THRESHOLD=1.0
RON_BENCH_DIFF_THRESHOLD ?= 0.5
export RON_BENCH_DIFF_THRESHOLD

# Committed baseline that bench-diff compares against.
BENCH_BASELINE ?= BENCH_2026-08-08.json

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate plus a smoke run of the JSON perf pipeline (tiny sizes so it
# stays fast; the committed BENCH_*.json files use the default 500,1000,2000).
check: build test
	dune exec bench/main.exe -- esub --json /tmp/ron_bench_smoke.json --sizes 100,200

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --json BENCH_$$(date +%Y-%m-%d).json

# Regression gate: measure a fresh (small) report and diff it against the
# committed baseline. Timing keys use RON_BENCH_DIFF_THRESHOLD; the
# deterministic keys (stretch, hops, counter deltas, table bits) must
# match exactly; sizes missing from either file are skipped.
bench-diff: build
	dune exec bench/main.exe -- esub --json /tmp/ron_bench_fresh.json --sizes 200,400
	dune exec bin/ron_cli.exe -- diff $(BENCH_BASELINE) /tmp/ron_bench_fresh.json \
	  --out /tmp/ron_bench_diff_verdict.json

# Scaling smoke: the near-linear pipeline (streamed torus -> on-demand
# oracle -> landmark labels -> sampled stretch) at n = 10^5, under a hard
# wall-clock budget, then diffed warn-only against the committed baseline
# (timing keys use the threshold; the deterministic label/stretch keys must
# match exactly; peak_rss_kb is recorded but not diffed).
SCALE_SMOKE_N ?= 100000
SCALE_SMOKE_BUDGET_S ?= 300
scale-smoke: build
	timeout $(SCALE_SMOKE_BUDGET_S) dune exec bench/main.exe -- \
	  --json /tmp/ron_scale_smoke.json --scale-only --scale $(SCALE_SMOKE_N)
	dune exec bin/ron_cli.exe -- diff $(BENCH_BASELINE) /tmp/ron_scale_smoke.json \
	  --warn-only --out /tmp/ron_scale_smoke_verdict.json

# Observability smoke: trace a routing run, then validate every JSONL event.
trace-smoke: build
	dune exec bin/ron_cli.exe -- route -m grid -n 64 -p 200 \
	  --trace /tmp/ron_trace_smoke.jsonl --metrics-out /tmp/ron_metrics_smoke.json
	dune exec bin/ron_cli.exe -- check trace /tmp/ron_trace_smoke.jsonl

# Fault smoke: a small fault-injection sweep (crashed nodes + drops + dead
# links with graceful-degradation fallbacks), then validate every JSONL
# trace event the faulty run emitted.
fault-smoke: build
	dune exec bin/ron_cli.exe -- fault -m grid -n 64 -p 200 \
	  --crash 0.08 --drop 0.02 --dead-links 0.02 \
	  --trace /tmp/ron_fault_smoke.jsonl --metrics-out /tmp/ron_fault_metrics.json
	dune exec bin/ron_cli.exe -- check trace /tmp/ron_fault_smoke.jsonl

# Churn smoke: the dynamic-membership sweep at a reduced landmark size,
# run at RON_JOBS=1 and 4 — the outputs must be byte-identical (the
# schedule and every repair are sequential seeded hashes) and the repair
# must stay incremental (churn.rebuilds = 0). Then one CLI run composing
# churn with per-hop drops. Outputs land in /tmp for CI to archive.
CHURN_SMOKE_N ?= 2000
churn-smoke: build
	RON_CHURN_N=$(CHURN_SMOKE_N) RON_JOBS=1 dune exec bench/main.exe -- churn \
	  > /tmp/ron_churn_smoke_j1.txt
	RON_CHURN_N=$(CHURN_SMOKE_N) RON_JOBS=4 dune exec bench/main.exe -- churn \
	  > /tmp/ron_churn_smoke_j4.txt
	cmp /tmp/ron_churn_smoke_j1.txt /tmp/ron_churn_smoke_j4.txt
	grep -q 'churn.rebuilds = 0' /tmp/ron_churn_smoke_j1.txt
	dune exec bin/ron_cli.exe -- churn -m grid -n 100 -p 300 \
	  --join-rate 0.05 --leave-rate 0.05 --crash 0 --drop 0.0125 --dead-links 0 \
	  | tee /tmp/ron_churn_smoke_cli.txt
	grep -q 'repair:' /tmp/ron_churn_smoke_cli.txt

# Telemetry smoke: the n = 10^5 scale run with the runtime sampler on,
# then validate the snapshot series (seq/ts monotone, typed sections) and
# render the per-series report. The JSONL lands in /tmp for CI to archive.
TELEMETRY_SMOKE_N ?= 100000
TELEMETRY_SMOKE_INTERVAL_MS ?= 200
telemetry-smoke: build
	timeout $(SCALE_SMOKE_BUDGET_S) dune exec bench/main.exe -- \
	  --json /tmp/ron_telemetry_smoke_bench.json --scale-only \
	  --scale $(TELEMETRY_SMOKE_N) \
	  --telemetry /tmp/ron_telemetry_smoke.jsonl \
	  --telemetry-interval $(TELEMETRY_SMOKE_INTERVAL_MS)
	dune exec bin/ron_cli.exe -- check telemetry /tmp/ron_telemetry_smoke.jsonl
	dune exec bin/ron_cli.exe -- report telemetry /tmp/ron_telemetry_smoke.jsonl
	dune exec bin/ron_cli.exe -- report telemetry /tmp/ron_telemetry_smoke.jsonl --json \
	  > /tmp/ron_telemetry_smoke_report.json
	grep -q '"rss_kb"' /tmp/ron_telemetry_smoke_report.json
	grep -q '"gc.major_words"' /tmp/ron_telemetry_smoke_report.json
	grep -q '"gauge:oracle.rows_cached"' /tmp/ron_telemetry_smoke_report.json

# Serving smoke: freeze a scheme into an off-heap snapshot, serve a seeded
# Zipf-skewed batch workload from it twice — once warm (built in-process,
# saving the snapshot) and once cold (reloaded from the file) — and assert
# the two runs produced byte-identical results (same workload digest).
# RON_JOBS=4 on the cold run doubles as a jobs-invariance check.
SERVE_SMOKE_N ?= 100
SERVE_SMOKE_QUERIES ?= 20000
serve-smoke: build
	dune exec bin/ron_cli.exe -- serve --scheme basic -n $(SERVE_SMOKE_N) \
	  --queries $(SERVE_SMOKE_QUERIES) --snapshot /tmp/ron_serve_smoke.snap \
	  | tee /tmp/ron_serve_smoke_warm.txt
	RON_JOBS=4 dune exec bin/ron_cli.exe -- serve --load /tmp/ron_serve_smoke.snap \
	  --queries $(SERVE_SMOKE_QUERIES) \
	  | tee /tmp/ron_serve_smoke_cold.txt
	@warm=$$(grep -o 'digest=[0-9a-f]*' /tmp/ron_serve_smoke_warm.txt); \
	cold=$$(grep -o 'digest=[0-9a-f]*' /tmp/ron_serve_smoke_cold.txt); \
	if [ "$$warm" != "$$cold" ]; then \
	  echo "serve-smoke: warm/cold digests differ ($$warm vs $$cold)"; exit 1; \
	else echo "serve-smoke: warm/cold digests match ($$warm)"; fi

# SLO smoke: serve a batch with the burn-rate monitor, flight recorder,
# and Prometheus exposition all on; validate the exposition file, render
# the verdict through `ron_cli report slo` (human + JSON), and assert the verdict
# carries windows and a burn rate.
SLO_SMOKE_N ?= 100
SLO_SMOKE_QUERIES ?= 20000
slo-smoke: build
	dune exec bin/ron_cli.exe -- serve --scheme basic -n $(SLO_SMOKE_N) \
	  --queries $(SLO_SMOKE_QUERIES) \
	  --slo "p99<=50us,delivery>=0.99" --slo-out /tmp/ron_slo_smoke.json \
	  --flight 4 --expo /tmp/ron_slo_smoke.prom \
	  | tee /tmp/ron_slo_smoke_serve.txt
	grep -q '^flight recorded=' /tmp/ron_slo_smoke_serve.txt
	grep -q '^slo ' /tmp/ron_slo_smoke_serve.txt
	dune exec bin/ron_cli.exe -- check expo /tmp/ron_slo_smoke.prom
	dune exec bin/ron_cli.exe -- report slo /tmp/ron_slo_smoke.json
	dune exec bin/ron_cli.exe -- report slo /tmp/ron_slo_smoke.json --json \
	  > /tmp/ron_slo_smoke_report.json
	grep -q '"max_burn_rate"' /tmp/ron_slo_smoke_report.json
	grep -q '"windows"' /tmp/ron_slo_smoke_report.json

# Profiler smoke: a profiled + traced routing run, then aggregate the trace
# into the per-span table / folded stacks and assert the phase profile is
# non-empty (construct.* and query.* phases must have fired).
profile-smoke: build
	dune exec bin/ron_cli.exe -- route -m grid -n 64 -p 200 \
	  --profile /tmp/ron_profile_smoke.json --trace /tmp/ron_profile_trace.jsonl
	dune exec bin/ron_cli.exe -- check trace /tmp/ron_profile_trace.jsonl
	dune exec bin/ron_cli.exe -- report trace /tmp/ron_profile_trace.jsonl \
	  --folded /tmp/ron_profile_folded.txt
	grep -q '"construct.basic"' /tmp/ron_profile_smoke.json
	grep -q '"query.routes"' /tmp/ron_profile_smoke.json

clean:
	dune clean
