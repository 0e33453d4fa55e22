#!/usr/bin/env bash
# Builds the benchmark and the linkclustd daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cluster-wordassoc --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, daemon
# state directories) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/linkclustd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/linkclustd and perfbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp HOME=$out/home \
	XDG_CONFIG_HOME=$out/home GOPATH=$out/home/go GOFLAGS=-mod=readonly GOTOOLCHAIN=local

go build -o "$out/linkclustd" ./cmd/linkclustd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/linkclustd" -workdir "$out" "$@"
