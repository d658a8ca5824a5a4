#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds rdfsumd and the harness from
# the checkout's source into <root>/.bench_build, with the Go build cache
# there too (and the go command's temporary files and configuration) so
# nothing is written outside the checkout, then runs the harness with
# the arguments given. Building here, before the harness pins itself to
# one CPU, lets a cold build use them all.
#
# No process may outlive this script. The go command's telemetry is
# therefore switched off in that private configuration directory before
# go first runs: with a fresh directory it would start a detached `go`
# child for its reports. And where the program's source is missing there
# is nothing to measure, so the script fails before starting anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rdfsumd" ]]; then
  echo "benchmark: $root holds no rdfsumd source (go.mod, cmd/rdfsumd): nothing to measure" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root" build -o "$build/rdfsumd" ./cmd/rdfsumd
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" -root "$root" -rdfsumd "$build/rdfsumd" "$@"
