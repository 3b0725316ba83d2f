#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a checkout; build output goes to stderr so the
# last line of standard output stays the result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
dune build --root . perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
