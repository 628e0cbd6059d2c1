#!/usr/bin/env bash
# Builds smbench and safemeasured from the checkout this is run in, then runs
# smbench with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload e11-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the benchmark write stays under .bench_build/ and
# bench/out/ of the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/safemeasured" ./cmd/safemeasured
(cd bench && go build -o "$out/bin/smbench" ./cmd/smbench)
exec "$out/bin/smbench" -root "$root" -safemeasured "$out/bin/safemeasured" "$@"
