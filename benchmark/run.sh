#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the
# logbase-server it drives from the checkout's own source, then runs the
# benchmark with the arguments it was given. Everything the build leaves
# behind — binaries, Go build cache, module cache, the toolchain's own
# config dir — goes under .bench_build/ in the checkout. Build time is
# outside every metric, setup_s included.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
gobuild() {
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off go build "$@" >&2
}
gobuild -C benchmark -o "$out/bin/benchmark" .
gobuild -o "$out/bin/logbase-server" ./cmd/logbase-server
exec "$out/bin/benchmark" -server "$out/bin/logbase-server" "$@"
