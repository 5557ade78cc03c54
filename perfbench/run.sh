#!/usr/bin/env bash
# Build the benchmark and the routing_lab CLI from source, then run one
# workload:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Everything it writes stays inside the checkout: dune's _build/ and the
# scratch directory _perfbench/. The shared dune cache is disabled so
# nothing is read from or written to the home directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: $root is not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/perfbench.exe bin/routing_lab.exe >&2
exec "$root/_build/default/perfbench/perfbench.exe" \
  --routing-lab "$root/_build/default/bin/routing_lab.exe" "$@"
