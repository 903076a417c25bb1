#!/usr/bin/env bash
# Builds the benchmark and the vsvcampaign binary it drives from the sources
# of the checkout it is run in, then runs the benchmark with the arguments
# given, e.g.:
#
#   bash _perfbench/run.sh --workload service --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# scratch files, spans and CPU profiles all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vsvcampaign" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/vsvcampaign in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/vsvcampaign" ./cmd/vsvcampaign

exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
