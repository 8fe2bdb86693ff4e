#!/bin/sh
# Build the benchmark from source and run it, from the repository root:
#   sh perfsuite/run.sh --workload cold --seed 1 --seconds 15 --trace 0
# The shared dune cache is disabled so that building writes only under
# _build in this directory.
set -eu
export DUNE_CACHE=disabled
dune build --root . --display quiet perfsuite/suite.exe >&2
exec ./_build/default/perfsuite/suite.exe "$@"
