#!/usr/bin/env bash
# Smoke test for the live observability server: start fsaisolve with -listen
# on a generated matrix, scrape /metrics, /debug/solve and /debug/pprof/, and
# assert the responses are sane. Run via `make obs-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building tools =="
go build -o "$workdir/fsaisolve" ./cmd/fsaisolve
go build -o "$workdir/mmtool" ./cmd/mmtool

echo "== generating test matrix =="
"$workdir/mmtool" gen jump64x64-b8-j1e3 "$workdir/m.mtx"

echo "== starting fsaisolve -listen :0 -hold =="
: >"$workdir/stderr.log" # exists before the backgrounded redirect opens it
"$workdir/fsaisolve" -precond fsaie -align 0 -listen 127.0.0.1:0 -hold \
    -metrics-out "$workdir/run.json" "$workdir/m.mtx" 2>"$workdir/stderr.log" &
pid=$!

# Parse the bound address from stderr (the solve itself takes well under the
# timeout on any machine).
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^observability server listening on http://##p' "$workdir/stderr.log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "fsaisolve exited early:"; cat "$workdir/stderr.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "no listen address announced"; cat "$workdir/stderr.log"; exit 1; }
echo "server at $addr"

# Wait for the hold message so the solve (and report write) has finished.
for _ in $(seq 1 100); do
    grep -q "holding for scrapes" "$workdir/stderr.log" && break
    sleep 0.1
done

fail=0

echo "== GET /metrics =="
curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
[ -s "$workdir/metrics.txt" ] || { echo "FAIL: /metrics empty"; fail=1; }
for want in "# TYPE" "# HELP" "krylov_iterations" "cachesim_x_misses"; do
    grep -q "$want" "$workdir/metrics.txt" || { echo "FAIL: /metrics missing '$want'"; fail=1; }
done

echo "== GET /healthz =="
curl -fsS "http://$addr/healthz" >"$workdir/health.json"
grep -q '"status": *"ok"' "$workdir/health.json" || { echo "FAIL: /healthz not ok:"; cat "$workdir/health.json"; fail=1; }
grep -q '"solve": *"converged"' "$workdir/health.json" || { echo "FAIL: /healthz missing solve status:"; cat "$workdir/health.json"; fail=1; }

echo "== GET /debug/solve =="
curl -fsS "http://$addr/debug/solve" >"$workdir/solve.json"
grep -q '"done": *true' "$workdir/solve.json" || { echo "FAIL: /debug/solve not done:"; cat "$workdir/solve.json"; fail=1; }
grep -q '"iteration"' "$workdir/solve.json" || { echo "FAIL: /debug/solve has no iteration"; fail=1; }

echo "== GET /debug/solve?stream=1 (SSE) =="
# The solve is finished, so the stream replays the final state and closes.
curl -fsS -N --max-time 10 "http://$addr/debug/solve?stream=1" >"$workdir/sse.txt" || true
grep -q "^event: solve" "$workdir/sse.txt" || { echo "FAIL: no SSE event:"; cat "$workdir/sse.txt"; fail=1; }

echo "== GET /debug/pprof/cmdline =="
curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null || { echo "FAIL: pprof"; fail=1; }

echo "== GET /runs =="
curl -fsS "http://$addr/runs" >"$workdir/runs.json"
grep -q "run.json" "$workdir/runs.json" || { echo "FAIL: /runs does not list the report:"; cat "$workdir/runs.json"; fail=1; }
curl -fsS "http://$addr/runs/run.json" >"$workdir/fetched.json"
grep -q '"schema_version"' "$workdir/fetched.json" || { echo "FAIL: /runs/run.json unreadable"; fail=1; }
grep -q '"roofline"' "$workdir/fetched.json" || { echo "FAIL: run report missing roofline section"; fail=1; }
# The golden reference run (TestSetupGoldenFactors) through the file path:
# mmtool gen, then fsaisolve -precond fsaie -align 0 on the written matrix.
for want in '"variant": "fsaie"' '"iterations": 17,' '"nnz_g": 33775,' '"converged": true'; do
    grep -q "$want" "$workdir/run.json" || { echo "FAIL: reference run report lacks $want"; fail=1; }
done
# One solve clock: the report's solve time is krylov's kernel-timing total.
solve_wall=$(sed -n 's/.*"solve_wall_ns": *\([0-9]*\).*/\1/p' "$workdir/run.json" | head -1)
timing_total=$(sed -n 's/.*"total_ns": *\([0-9]*\).*/\1/p' "$workdir/run.json" | head -1)
if [ -z "$solve_wall" ] || [ "$solve_wall" != "$timing_total" ]; then
    echo "FAIL: reference run solve_wall_ns ${solve_wall:-missing} != timing.total_ns ${timing_total:-missing}"
    fail=1
fi

echo "== GET /roofline =="
curl -fsS "http://$addr/roofline" >"$workdir/roofline.json"
grep -q '"machine"' "$workdir/roofline.json" || { echo "FAIL: /roofline missing machine roofs:"; cat "$workdir/roofline.json"; fail=1; }
grep -q '"spmv"' "$workdir/roofline.json" || { echo "FAIL: /roofline has no spmv placement:"; cat "$workdir/roofline.json"; fail=1; }

echo "== GET /profiles (no sampler: disabled but valid JSON) =="
curl -fsS "http://$addr/profiles" >"$workdir/profiles.json"
grep -q '"enabled": *false' "$workdir/profiles.json" || { echo "FAIL: /profiles should report disabled:"; cat "$workdir/profiles.json"; fail=1; }

echo "== no observability route may answer 5xx =="
for route in / /metrics /healthz /debug/solve /runs /traces /slo /profiles /roofline; do
    code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr$route")
    if [ "$code" -ge 500 ]; then
        echo "FAIL: GET $route answered HTTP $code"
        fail=1
    fi
done

kill "$pid" && wait "$pid" 2>/dev/null || true
pid=""

echo "== fsaisolve -precond adaptive reports its setup phases =="
# The adaptive search is fsai.Compute's base-pattern phase, so its run
# report carries setup_phases like any other FSAI-family setup.
"$workdir/fsaisolve" -precond adaptive -align 0 -metrics-out "$workdir/adaptive.json" \
    "$workdir/m.mtx" >/dev/null 2>"$workdir/adaptive.log" || {
    echo "FAIL: adaptive solve:"
    cat "$workdir/adaptive.log"
    fail=1
}
for want in '"setup_phases"' '"name": "base-pattern"' '"name": "frobenius-solve"'; do
    grep -q "$want" "$workdir/adaptive.json" || { echo "FAIL: adaptive run report lacks $want"; fail=1; }
done

if [ "$fail" -ne 0 ]; then
    echo "obs smoke test FAILED"
    exit 1
fi
echo "obs smoke test OK"
