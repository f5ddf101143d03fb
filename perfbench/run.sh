#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the root
# of a checkout) and runs it with the given arguments. Everything the build
# writes stays in .bench_build/ of the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
