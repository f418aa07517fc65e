#!/bin/sh
# Builds the perfeng daemon and the perfbench program from the checkout
# this is run in, then runs perfbench with the given arguments:
#
#   sh perfbench/run.sh --workload jobs-small --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ (Go build cache, module path, config and
# temporary files included).
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
TMPDIR="$out/tmp"
XDG_CONFIG_HOME="$out/config"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=
export GOCACHE GOPATH GOTMPDIR TMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOFLAGS
# Telemetry off: otherwise the go command starts a detached upload process
# that can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/perfeng" ./cmd/perfeng
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -perfeng "$out/perfeng" -out "$out" "$@"
