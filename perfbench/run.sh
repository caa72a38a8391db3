#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload pcap_ingest --seed 1 --seconds 15 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that imports the
# repository module at its parent directory, so the root module's
# `go build ./...` and `go test ./...` never see it. Every build and run
# artefact (Go build cache, binary, span logs, store directories) stays
# under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
