#!/usr/bin/env bash
# Builds the benchmark and fsaid from the source tree this script sits in,
# then runs the benchmark from the repository root.
#
#   bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       runs one workload in a fresh process and prints its metrics, the
#       last line being the JSON summary;
#   bash bench/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       runs all four workloads, one fresh process each, and writes the set
#       to bench/results/<commit>.json.
#
# Builds, the Go build cache and daemon scratch data go to $CARGO_TARGET_DIR
# (default .bench_build at the repository root); traced runs write their
# spans to bench/traces.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# With telemetry on (the default in a fresh config dir) every go command may
# start a detached upload process that outlives this script; "go telemetry
# off" itself never starts one. Toolchains older than go1.23 have neither.
go telemetry off 2>/dev/null || true

go build -o "$out/bin/fsaid" ./cmd/fsaid
go -C bench build -o "$out/bin/bench" .

bench=("$out/bin/bench" -fsaid "$out/bin/fsaid" -work "$out/work" -trace-dir bench/traces)
for arg in "$@"; do
	case $arg in
	-workload | --workload | -workload=* | --workload=*) exec "${bench[@]}" "$@" ;;
	esac
done

sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
mkdir -p bench/results
result=bench/results/$sha.json
{
	printf '{"commit": "%s", "args": "%s", "workloads": {' "$sha" "$*"
	sep=
	for w in suite-cold large-warm daemon-warm daemon-mixed; do
		echo "== $w" >&2
		line=$("${bench[@]}" -workload "$w" "$@" | tee /dev/stderr | tail -n 1)
		printf '%s\n  "%s": %s' "$sep" "$w" "$line"
		sep=,
	done
	printf '\n}}\n'
} >"$result.tmp"
mv "$result.tmp" "$result"
echo "wrote $result" >&2
