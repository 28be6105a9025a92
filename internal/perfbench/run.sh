#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from source, then become it.
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, temp files, the binary) stays under .bench_build in
# the checkout, and so does the harness's own temp directory. The build needs
# no network: the only dependency is vendored under third_party/.
#
# The script starts no background process: go build runs in the foreground
# (with the go command's telemetry child switched off, see below) and ends
# before exec replaces the shell with the harness, which is then the only
# process and exits by itself (a watchdog inside it bounds every run).
set -euo pipefail

# Without the program's source there is nothing to measure: say so and stop
# before anything is written or any go command runs.
if [ ! -f go.mod ]; then
	echo "perfbench: run from the root of a geckoftl checkout (no go.mod here)" >&2
	exit 1
fi

root=$PWD/.bench_build
mkdir -p "$root/tmp"
export HOME=$root/home XDG_CONFIG_HOME=$root/config XDG_CACHE_HOME=$root/cache
export GOCACHE=$root/gocache GOMODCACHE=$root/gomod GOPATH=$root/gopath
export GOTMPDIR=$root/tmp TMPDIR=$root/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The go command's telemetry is on ("local") by default, and in that mode it
# re-executes itself as a detached child that can outlive a go command that
# ends quickly. The GOTELEMETRY variable is read-only; the mode file in the
# user config directory (redirected into .bench_build above) is what turns it
# off, so go build is the only process it starts and it has no children left
# when it returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -buildvcs=false -o "$root/perfbench" ./internal/perfbench

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$root/perfbench" -commit "$commit" "$@"
