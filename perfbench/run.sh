#!/usr/bin/env bash
# Builds obdreld and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -runs 10 -seconds 10
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/obdreld ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an obdrel checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Keep the Go toolchain's caches and telemetry inside the checkout and
# off the network: the module needs nothing beyond the standard library.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
go build -o "$out/bin/obdreld" ./cmd/obdreld >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
