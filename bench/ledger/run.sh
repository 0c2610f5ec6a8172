#!/usr/bin/env bash
# Build the ledger from source, then run it with the given arguments,
# from the repository root:
#   bash bench/ledger/run.sh --workload grid-trace --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so stdout ends with the ledger's JSON line.
set -eu
cd "$(dirname "$0")/../.."
# the dune cache lives outside the checkout; build without it
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
