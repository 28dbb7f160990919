#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments, e.g.
#
#   bash vpbench/run.sh --workload fleet-coalesce --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and the
# span files of traced runs stay in .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# The go command writes only inside the checkout: its build cache, temporary
# files, and (through HOME) its module cache, config and telemetry.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod

# The checkout need not be a git repository, so the recorded revision is a
# digest of the Go sources the binary is built from.
commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"

(cd "$root/vpbench" && go build -o "$out/vpbench" .)
exec "$out/vpbench" --commit "$commit" "$@"
