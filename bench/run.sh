#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given flags,
# for example:
#
#   bash bench/run.sh -workload read-hot -seed 1 -seconds 30
#
# Run it from the repository root. The build cache, the binary, temporary
# stores and span files all go under .bench_build/ in the current directory;
# HOME points there too, so the Go toolchain writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
go -C "$(dirname "$0")" build -o "$out/epfis-bench" .
exec "$out/epfis-bench" "$@"
