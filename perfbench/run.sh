#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload tatp-central --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# trace files all stay under .bench_build/ (or $CARGO_TARGET_DIR when set),
# so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/trace" "$@"
