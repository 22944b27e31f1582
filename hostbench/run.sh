#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash hostbench/run.sh --workload km-8n --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and traced-run Chrome traces all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" --out "$out" "$@"
