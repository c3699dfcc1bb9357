#!/usr/bin/env bash
# Build the suite from source in this checkout and run it with the given
# arguments (see README.md in this directory).  Run from the repo root:
#   bash bench/suite/run.sh --workload f32-uniform --seed 1 --seconds 10 --trace 0
set -euo pipefail
# Keep every build output inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/suite/suite.exe >&2
exec ./_build/default/bench/suite/suite.exe "$@"
