#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark and runs it against the
# repository it is started from. Run it from the repository root:
#
#	bash cmd/e2ebench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
#	bash cmd/e2ebench/run.sh -workload all -seed 1 -o run.json
#	bash cmd/e2ebench/run.sh -compare A1.json A2.json -- B1.json B2.json
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ] || [ ! -d "$root/cmd/sweepworker" ]; then
	echo "e2ebench: run from the repository root (no go.mod with cmd/serve and cmd/sweepworker here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

go build -C "$root/cmd/e2ebench" -o "$build/bin/e2ebench" .
exec "$build/bin/e2ebench" -src "$root" -bin "$build/bin" -tmp "$build/tmp" "$@"
