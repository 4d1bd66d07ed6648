#!/usr/bin/env bash
# Builds the perfbench binary from the source in this checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig8_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, per-run temp dirs, trace files) stays under
# .bench_build/ in the current directory. The binary is built once and
# relinked only when the source changes, so the timed runs never include
# compilation (go run's build overlapped the first second of a cold run
# and inflated it).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's source is missing" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2

export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
