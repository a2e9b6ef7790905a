#!/usr/bin/env bash
# Builds the benchmark and the loopserved daemon from this checkout and
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/go-tmp" \
	TMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench/perfbench" . && go build -o "$out/perfbench/loopserved" repro/cmd/loopserved) >&2

exec "$out/perfbench/perfbench" -daemon "$out/perfbench/loopserved" -out "$out/perfbench" "$@"
