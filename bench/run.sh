#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root. Everything the build and the run write — Go's
# build cache, temporary files, the binary, span files — stays under
# .bench_build/ there. Arguments are passed through, e.g.
#
#   bash bench/run.sh --workload call_sim --seed 1 --seconds 8 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
bin="$build/asapbench"
stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find "$root" -name .bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}
if stale; then
	(cd "$here" && go build -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
