#!/bin/sh
# run.sh builds the harness and runs it from the checkout root. Every
# file the Go toolchain writes (build cache, module cache, work
# directories, telemetry) is redirected under .bench_build/, so a run
# touches nothing outside the checkout; CGO is off so a cold cache needs
# no C compiler.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
b="$root/.bench_build"
mkdir -p "$b/bin" "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod" GOTMPDIR="$b/tmp"
export XDG_CONFIG_HOME="$b/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C benchmark -o "$b/bin/harness" .
exec "$b/bin/harness" "$@"
