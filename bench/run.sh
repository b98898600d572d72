#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache, temp
# files) stays under .bench_build/ at the root of the checkout; the working
# directory is left alone, so the benchmark's own outputs land there too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the user's
# configuration directory; that belongs inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

# The VCS stamp gives reports their commit; a checkout git cannot read still builds.
go build -C "$here" -o "$build/bench" . 2>"$build/build.log" ||
	go build -C "$here" -buildvcs=false -o "$build/bench" .

exec "$build/bench" "$@"
