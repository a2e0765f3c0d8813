#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs the
# benchmark. Everything it writes — binaries, the Go build cache, scratch
# data — stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/anduril-bench" .)
(cd "$root" && go build -o "$out/anduril-server" ./cmd/anduril-server)
export ANDURIL_BENCH_SERVER="$out/anduril-server"
exec "$out/anduril-bench" "$@"
