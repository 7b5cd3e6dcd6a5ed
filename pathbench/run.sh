#!/usr/bin/env bash
# Builds the pathmark benchmark from the source tree it sits in and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash pathbench/run.sh --workload caffeine-forensics --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, job directories and
# span files all live under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/pathbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

# Build output goes to stderr: stdout carries only the benchmark's result.
go build -C pathbench -o "$out/pathbench" . 1>&2
exec "$out/pathbench" "$@"
