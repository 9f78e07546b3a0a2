#!/bin/sh
# Build the payload-to-verdict benchmark from source, then run it.  From the
# repository root:
#
#   sh perfbench/run.sh --workload warm-http --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# The build stays inside the checkout (no shared dune cache).
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
