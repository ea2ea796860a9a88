#!/usr/bin/env bash
# The benchmark's build file and entry point for drivers: builds the benchmark
# from source into .bench_build/ of the checkout it is run from and runs it
# with the arguments given. The Go build cache and the temporary directory
# (the daemon the program builds per run, its data directories, checkpoint
# dumps) are kept under .bench_build/ too, so nothing is read or written
# outside the checkout. By hand, `go run ./benchmark ...` does the same with
# your own build cache and $TMPDIR.
set -euo pipefail
[ -f go.mod ] && [ -d cmd/quaked ] || {
	echo "run.sh: run from the root of a checkout of the repository (go.mod and cmd/quaked not found)" >&2
	exit 2
}
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache"
export XDG_CONFIG_HOME="$PWD/.bench_build/config" # the go command's own telemetry files
export TMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
