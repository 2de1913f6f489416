#!/usr/bin/env bash
# Build vqc-serve and the benchmark from this checkout, then run the
# benchmark.  Run from the root of the checkout:
#
#   bash servebench/run.sh --workload hit --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh all --seed 1 --seconds 20   # every workload, trace 0 and 1
#   bash servebench/run.sh regen                       # rewrite servebench/expected/*.tsv
#
# Everything it writes (build, spans, temporary files) lands under
# .bench_build in the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/serve.ml ] || [ ! -d lib/service ]; then
  echo "servebench: run from the root of a vqc checkout (bin/serve.ml not found)" >&2
  exit 2
fi

if [ "${1:-}" = all ]; then
  shift
  for workload in hit miss estimate drift; do
    for trace in 0 1; do
      bash "$0" --workload "$workload" --trace "$trace" "$@"
    done
  done
  exit 0
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
command -v dune >/dev/null 2>&1 || { echo "servebench: dune not found" >&2; exit 2; }

build=.bench_build
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --profile servebench \
  ./bin/serve.exe ./servebench/main.exe >&2

exec "$build/default/servebench/main.exe" "$@" \
  --serve-exe "$build/default/bin/serve.exe" --dir servebench --out "$build"
