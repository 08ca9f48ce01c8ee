#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload relay --seed 1 --seconds 10 --trace 0
#
# The go command's cache, configuration, temporary files and the binary
# live under .bench_build/ in the current directory, so nothing is written
# outside it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
(
	cd perfbench
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off \
		go build -o "$out/bin/perfbench" .
)
exec "$out/bin/perfbench" "$@"
