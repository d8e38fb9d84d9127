#!/usr/bin/env bash
# Builds the RepChain benchmark and the node binaries from the checkout
# it is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload engine-light --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# lands under .bench_build/ in that checkout: the Go build cache, the
# binaries, per-run state directories (removed after each run) and
# out/ (results, spans, node log tails).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/repchain-node || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repchain checkout (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin" "$build/xdg" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/xdg" XDG_CACHE_HOME="$build/xdg"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# Rebuild only when a Go source or module file changed since the last
# build in this checkout.
stamp=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name 'go.mod' -o -name 'go.sum' \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
if [[ ! -x "$build/bin/perfbench" || ! -x "$build/bin/repchain-node" || ! -x "$build/bin/repchain-keygen" ||
	"$(cat "$build/bin/stamp" 2>/dev/null || true)" != "$stamp" ]]; then
	rm -f "$build/bin/stamp"
	go build -o "$build/bin/" ./cmd/repchain-node ./cmd/repchain-keygen
	(cd perfbench && go build -o "$build/bin/perfbench" .)
	echo "$stamp" >"$build/bin/stamp"
fi

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
