#!/usr/bin/env bash
# Smoke test for the fsaid solve daemon: start it on a free port, register a
# generated matrix, run a cold solve then a warm solve, and assert the
# preconditioner cache did its job — the warm solve reports a cache hit with
# zero setup time and beats the cold solve end-to-end. Also drills the
# admission-control path (429 + Retry-After on saturation; /healthz stays
# ok after the held, non-converged job), the job span tree's decode/job/
# encode stages, resilient jobs sharing the preconditioner cache (miss,
# then hit with zero setup), the mounted observability endpoints, and
# asserts the robustness metric families
# (store_*, retry_*, degraded_*) render with # HELP/# TYPE headers. The
# crash-recovery path itself is drilled separately by crash_drill.sh.
# Run via `make service-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# json_num FILE KEY -> first numeric value of "KEY": N
json_num() {
    sed -n 's/.*"'"$2"'": *\(-\{0,1\}[0-9][0-9]*\).*/\1/p' "$1" | head -1
}

# json_str FILE KEY -> first string value of "KEY": "..."
json_str() {
    sed -n 's/.*"'"$2"'": *"\([^"]*\)".*/\1/p' "$1" | head -1
}

# json_ok FILE -> asserts the file parses as JSON (when python3 is around)
json_ok() {
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool "$1" >/dev/null
    else
        grep -q '[{[]' "$1"
    fi
}

echo "== building fsaid =="
go build -o "$workdir/fsaid" ./cmd/fsaid

echo "== starting fsaid serve =="
# One slot, no waiting queue: the saturation drill below is deterministic.
# The profiling cadence is cranked way up so a capture window lands during
# the smoke run (production default is 10s out of every minute).
# -data-dir turns on the durable store (its gauges/counters must render);
# the 4GiB soft limit arms the degradation layer without ever tripping it.
: >"$workdir/stderr.log" # exists before the backgrounded redirect opens it
"$workdir/fsaid" serve -listen 127.0.0.1:0 -runs-dir "$workdir/runs" \
    -data-dir "$workdir/data" -mem-soft-limit 4GiB \
    -max-inflight 1 -queue=-1 \
    -prof-window 300ms -prof-gap 200ms 2>"$workdir/stderr.log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    # The daemon announces itself via slog: ... msg="fsaid listening" addr=http://H:P
    addr=$(sed -n 's#.*msg="fsaid listening" addr=http://\([^ ]*\).*#\1#p' "$workdir/stderr.log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "fsaid exited early:"; cat "$workdir/stderr.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "no listen address announced"; cat "$workdir/stderr.log"; exit 1; }
echo "daemon at $addr"

fail=0

echo "== register matrix (fsaid register -matgen) =="
"$workdir/fsaid" register -addr "$addr" -matgen lap64x64 -name lap

echo "== cold solve =="
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"lap","precond":"fsaie"}' \
    "http://$addr/api/v1/solve" >"$workdir/cold.json"
grep -q '"cache": *"miss"' "$workdir/cold.json" || { echo "FAIL: cold solve not a miss:"; cat "$workdir/cold.json"; fail=1; }
grep -q '"converged": *true' "$workdir/cold.json" || { echo "FAIL: cold solve did not converge"; fail=1; }
cold_setup=$(json_num "$workdir/cold.json" setup_ns)
cold_total=$(json_num "$workdir/cold.json" total_ns)
[ "${cold_setup:-0}" -gt 0 ] || { echo "FAIL: cold solve reports no setup cost"; fail=1; }

echo "== warm solve =="
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"lap","precond":"fsaie"}' \
    "http://$addr/api/v1/solve" >"$workdir/warm.json"
grep -q '"cache": *"hit"' "$workdir/warm.json" || { echo "FAIL: warm solve not a hit:"; cat "$workdir/warm.json"; fail=1; }
warm_setup=$(json_num "$workdir/warm.json" setup_ns)
warm_total=$(json_num "$workdir/warm.json" total_ns)
[ "${warm_setup:-1}" -eq 0 ] || { echo "FAIL: warm solve paid setup: ${warm_setup}ns"; fail=1; }
if [ -n "$cold_total" ] && [ -n "$warm_total" ] && [ "$warm_total" -ge "$cold_total" ]; then
    echo "FAIL: warm solve (${warm_total}ns) not faster than cold (${cold_total}ns)"
    fail=1
fi
echo "cold: total=${cold_total}ns setup=${cold_setup}ns; warm: total=${warm_total}ns setup=${warm_setup}ns"

echo "== request tracing: /traces and /traces/<id> =="
warm_trace=$(json_str "$workdir/warm.json" trace_id)
[ -n "$warm_trace" ] || { echo "FAIL: warm solve response has no trace_id"; cat "$workdir/warm.json"; fail=1; }
curl -fsS "http://$addr/traces" >"$workdir/traces.json"
json_ok "$workdir/traces.json" || { echo "FAIL: /traces is not well-formed JSON"; cat "$workdir/traces.json"; fail=1; }
grep -q "\"$warm_trace\"" "$workdir/traces.json" || { echo "FAIL: /traces does not list the warm solve's trace"; cat "$workdir/traces.json"; fail=1; }
curl -fsS "http://$addr/traces/$warm_trace" >"$workdir/trace.json"
json_ok "$workdir/trace.json" || { echo "FAIL: /traces/<id> is not well-formed JSON"; fail=1; }
grep -q '"solve-request"' "$workdir/trace.json" || { echo "FAIL: trace missing solve-request root span"; cat "$workdir/trace.json"; fail=1; }
grep -q '"cg-solve"' "$workdir/trace.json" || { echo "FAIL: trace missing cg-solve span"; cat "$workdir/trace.json"; fail=1; }
# The root's stages: the span tree is the job's only clock.
for stage in decode job encode; do
    grep -q "\"name\": *\"$stage\"" "$workdir/trace.json" || { echo "FAIL: trace missing $stage stage span"; cat "$workdir/trace.json"; fail=1; }
done

echo "== SLO monitor: /slo =="
curl -fsS "http://$addr/slo" >"$workdir/slo.json"
json_ok "$workdir/slo.json" || { echo "FAIL: /slo is not well-formed JSON"; cat "$workdir/slo.json"; fail=1; }
grep -q '"target"' "$workdir/slo.json" || { echo "FAIL: /slo missing target"; cat "$workdir/slo.json"; fail=1; }
grep -q '"warm_solve"' "$workdir/slo.json" || { echo "FAIL: /slo missing warm_solve series"; cat "$workdir/slo.json"; fail=1; }
grep -q '"cold_solve"' "$workdir/slo.json" || { echo "FAIL: /slo missing cold_solve series"; cat "$workdir/slo.json"; fail=1; }

echo "== cache counters on /metrics =="
curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
grep -q '^service_cache_hits 1$' "$workdir/metrics.txt" || { echo "FAIL: cache-hit counter not incremented"; grep service_cache "$workdir/metrics.txt" || true; fail=1; }
grep -q '^service_cache_misses 1$' "$workdir/metrics.txt" || { echo "FAIL: cache-miss counter wrong"; fail=1; }
# /api/v1/stats reads the same registry counters /metrics renders.
curl -fsS "http://$addr/api/v1/stats" >"$workdir/cstats.json"
for key in hits misses; do
    want=$(sed -n "s/^service_cache_$key \([0-9][0-9]*\)\$/\1/p" "$workdir/metrics.txt")
    got=$(json_num "$workdir/cstats.json" "$key")
    [ -n "$want" ] && [ "$got" = "$want" ] || { echo "FAIL: /api/v1/stats cache $key=$got, /metrics service_cache_$key=$want"; cat "$workdir/cstats.json"; fail=1; }
done
grep -q '^go_goroutines ' "$workdir/metrics.txt" || { echo "FAIL: runtime metrics missing from /metrics"; fail=1; }

echo "== robustness metric families carry # HELP / # TYPE headers =="
# docs/robustness.md documents these families; every one must render from
# the first scrape (zero-registered), with its header pair, so dashboards
# and alerts can rely on them before the first failure event.
for fam in \
    store_entries:gauge store_bytes:gauge store_corrupt_total:counter \
    store_writes_total:counter store_deletes_total:counter store_errors_total:counter \
    retry_replays_total:counter retry_coalesced_total:counter retry_deadline_expired_total:counter \
    degraded_state:gauge degraded_shed_total:counter degraded_evictions_total:counter; do
    name=${fam%:*}; kind=${fam#*:}
    grep -q "^# HELP $name " "$workdir/metrics.txt" || { echo "FAIL: missing # HELP for $name"; fail=1; }
    grep -q "^# TYPE $name $kind\$" "$workdir/metrics.txt" || { echo "FAIL: missing # TYPE $name $kind"; fail=1; }
done
# The durable store persisted the registered matrix and the cold solve's
# factor: writes must be non-zero and both entry kinds present.
grep -q '^store_writes_total [1-9]' "$workdir/metrics.txt" || { echo "FAIL: store_writes_total not incremented"; grep '^store_' "$workdir/metrics.txt" || true; fail=1; }
grep -q '^store_entries{kind="matrix"} 1$' "$workdir/metrics.txt" || { echo "FAIL: store_entries{kind=\"matrix\"} != 1"; fail=1; }
grep -q '^store_entries{kind="factor"} 1$' "$workdir/metrics.txt" || { echo "FAIL: store_entries{kind=\"factor\"} != 1"; fail=1; }
grep -q '^degraded_state 0$' "$workdir/metrics.txt" || { echo "FAIL: degraded_state not 0 (normal) under no pressure"; fail=1; }

echo "== /healthz =="
curl -fsS "http://$addr/healthz" >"$workdir/health.json"
grep -q '"status": *"ok"' "$workdir/health.json" || { echo "FAIL: /healthz not ok:"; cat "$workdir/health.json"; fail=1; }

echo "== live roofline: /roofline and roofline_* gauges =="
curl -fsS "http://$addr/roofline" >"$workdir/roofline.json"
json_ok "$workdir/roofline.json" || { echo "FAIL: /roofline is not well-formed JSON"; cat "$workdir/roofline.json"; fail=1; }
grep -q '"machine"' "$workdir/roofline.json" || { echo "FAIL: /roofline missing machine roofs"; cat "$workdir/roofline.json"; fail=1; }
grep -q '"spmv"' "$workdir/roofline.json" || { echo "FAIL: /roofline has no spmv kernel placement"; cat "$workdir/roofline.json"; fail=1; }
grep -q '^roofline_achieved_bandwidth_bytes{' "$workdir/metrics.txt" || { echo "FAIL: roofline_achieved_bandwidth_bytes missing from /metrics"; fail=1; }
grep -q '^roofline_achieved_flops{' "$workdir/metrics.txt" || { echo "FAIL: roofline_achieved_flops missing from /metrics"; fail=1; }

echo "== continuous profiling: /profiles =="
# Wait for the sampler (300ms window / 200ms gap) to land a capture.
profiled=0
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/profiles" >"$workdir/profiles.json"
    if grep -q '"id": *1' "$workdir/profiles.json"; then profiled=1; break; fi
    sleep 0.1
done
json_ok "$workdir/profiles.json" || { echo "FAIL: /profiles is not well-formed JSON"; cat "$workdir/profiles.json"; fail=1; }
grep -q '"enabled": *true' "$workdir/profiles.json" || { echo "FAIL: /profiles reports sampler disabled"; cat "$workdir/profiles.json"; fail=1; }
[ "$profiled" = "1" ] || { echo "FAIL: no profiling window captured"; cat "$workdir/profiles.json"; fail=1; }
# The raw windows are read by the toolchain's own pprof, the way an operator
# reads them (`go tool pprof -tags cpu.pb.gz` for the per-job breakdown).
for kind in cpu heap; do
    curl -fsS "http://$addr/profiles/1/$kind" >"$workdir/$kind.pb.gz" || { echo "FAIL: /profiles/1/$kind download failed"; fail=1; }
    go tool pprof -symbolize=none -raw "$workdir/$kind.pb.gz" >/dev/null || { echo "FAIL: go tool pprof cannot read /profiles/1/$kind"; fail=1; }
done

echo "== no observability route may answer 5xx =="
for route in / /metrics /healthz /debug/solve /runs /traces /slo /profiles /roofline; do
    code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr$route")
    if [ "$code" -ge 500 ]; then
        echo "FAIL: GET $route answered HTTP $code"
        fail=1
    fi
done

echo "== admission control: saturate and expect 429 =="
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"lap","precond":"jacobi","hold_ms":3000,"max_iter":5}' \
    "http://$addr/api/v1/solve" >"$workdir/hold.json" &
holdpid=$!
# Wait until the holding job owns the single slot.
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/api/v1/stats" >"$workdir/stats.json"
    [ "$(json_num "$workdir/stats.json" inflight)" = "1" ] && break
    sleep 0.05
done
code=$(curl -sS -o "$workdir/reject.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d '{"matrix":"lap","precond":"jacobi"}' \
    "http://$addr/api/v1/solve")
[ "$code" = "429" ] || { echo "FAIL: saturated daemon answered $code, want 429"; cat "$workdir/reject.json"; fail=1; }
retry_after=$(json_num "$workdir/reject.json" retry_after_s)
[ "${retry_after:-0}" -ge 1 ] || { echo "FAIL: 429 without retry_after_s:"; cat "$workdir/reject.json"; fail=1; }
wait "$holdpid" || { echo "FAIL: holding job failed"; cat "$workdir/hold.json"; fail=1; }
# The held job stopped at max_iter 5 without converging. That is one
# client's outcome, not the daemon's health: /healthz stays 200 ok.
grep -q '"converged": *false' "$workdir/hold.json" || { echo "FAIL: held max_iter 5 job converged:"; cat "$workdir/hold.json"; fail=1; }
code=$(curl -sS -o "$workdir/health2.json" -w '%{http_code}' "http://$addr/healthz")
[ "$code" = "200" ] && grep -q '"status": *"ok"' "$workdir/health2.json" \
    || { echo "FAIL: /healthz after a non-converged job answered $code:"; cat "$workdir/health2.json"; fail=1; }

echo "== run reports =="
curl -fsS "http://$addr/runs" >"$workdir/runs.json"
grep -q 'j-000001.json' "$workdir/runs.json" || { echo "FAIL: /runs does not list job reports:"; cat "$workdir/runs.json"; fail=1; }
curl -fsS "http://$addr/runs/j-000002.json" >"$workdir/warmreport.json"
grep -q '"cache": *"hit"' "$workdir/warmreport.json" || { echo "FAIL: warm run report missing cache=hit"; cat "$workdir/warmreport.json"; fail=1; }
report_trace=$(json_str "$workdir/warmreport.json" trace_id)
if [ "$report_trace" != "$warm_trace" ]; then
    echo "FAIL: run report trace_id ($report_trace) != solve response trace_id ($warm_trace)"
    fail=1
fi
grep -q '"slo"' "$workdir/warmreport.json" || { echo "FAIL: warm run report missing slo section"; fail=1; }
grep -q '"roofline"' "$workdir/warmreport.json" || { echo "FAIL: warm run report missing roofline section"; cat "$workdir/warmreport.json"; fail=1; }
grep -q '"achieved_bandwidth_bytes"' "$workdir/warmreport.json" || { echo "FAIL: roofline section has no achieved bandwidth"; fail=1; }

echo "== resilient jobs share the preconditioner cache =="
# Filter 0.05 gives the pair a key no earlier job built: the first resilient
# job pays the setup, the second reuses its factor.
for i in 1 2; do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"matrix":"lap","precond":"fsaie","filter":0.05,"resilient":true}' \
        "http://$addr/api/v1/solve" >"$workdir/resilient$i.json"
    grep -q '"converged": *true' "$workdir/resilient$i.json" || { echo "FAIL: resilient solve $i did not converge"; cat "$workdir/resilient$i.json"; fail=1; }
done
grep -q '"cache": *"miss"' "$workdir/resilient1.json" || { echo "FAIL: first resilient solve not a miss:"; cat "$workdir/resilient1.json"; fail=1; }
grep -q '"cache": *"hit"' "$workdir/resilient2.json" || { echo "FAIL: second resilient solve not a hit:"; cat "$workdir/resilient2.json"; fail=1; }
res_setup=$(json_num "$workdir/resilient2.json" setup_ns)
[ "${res_setup:-1}" -eq 0 ] || { echo "FAIL: warm resilient solve paid setup: ${res_setup}ns"; fail=1; }

echo "== batched multi-RHS solving =="
# A second daemon with the batcher armed: concurrent warm solves on the
# same fingerprint must coalesce into one block solve (batch size >= 2),
# every member's response and run report must carry the batch section, and
# the batch_* metric families must render with # HELP/# TYPE headers.
: >"$workdir/bstderr.log"
"$workdir/fsaid" serve -listen 127.0.0.1:0 -runs-dir "$workdir/bruns" \
    -batch-window 300ms -batch-max 8 2>"$workdir/bstderr.log" &
bpid=$!
baddr=""
for _ in $(seq 1 100); do
    baddr=$(sed -n 's#.*msg="fsaid listening" addr=http://\([^ ]*\).*#\1#p' "$workdir/bstderr.log" | head -1)
    [ -n "$baddr" ] && break
    kill -0 "$bpid" 2>/dev/null || { echo "batching fsaid exited early:"; cat "$workdir/bstderr.log"; exit 1; }
    sleep 0.1
done
[ -n "$baddr" ] || { echo "no listen address announced by batching fsaid"; cat "$workdir/bstderr.log"; exit 1; }
"$workdir/fsaid" register -addr "$baddr" -matgen lap64x64 -name lap >/dev/null
# Prime the cache: batching is warm-only, so the cold solve runs alone.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"lap","precond":"fsaie"}' \
    "http://$baddr/api/v1/solve" >"$workdir/bprime.json"
grep -q '"cache": *"miss"' "$workdir/bprime.json" || { echo "FAIL: batch priming solve not a miss"; cat "$workdir/bprime.json"; fail=1; }
batchpids=""
for i in 1 2 3; do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"matrix":"lap","precond":"fsaie"}' \
        "http://$baddr/api/v1/solve" >"$workdir/batch$i.json" &
    batchpids="$batchpids $!"
done
for p in $batchpids; do
    wait "$p" || { echo "FAIL: batched solve request failed"; fail=1; }
done
bid=$(json_str "$workdir/batch1.json" id)
[ -n "$bid" ] || { echo "FAIL: batched solve response has no batch id:"; cat "$workdir/batch1.json"; fail=1; }
for i in 1 2 3; do
    grep -q '"cache": *"hit"' "$workdir/batch$i.json" || { echo "FAIL: batched solve $i not warm"; cat "$workdir/batch$i.json"; fail=1; }
    grep -q '"converged": *true' "$workdir/batch$i.json" || { echo "FAIL: batched solve $i did not converge"; fail=1; }
    grep -q "\"id\": *\"$bid\"" "$workdir/batch$i.json" || { echo "FAIL: batched solve $i not in batch $bid"; cat "$workdir/batch$i.json"; fail=1; }
    grep -q '"size": *3' "$workdir/batch$i.json" || { echo "FAIL: batched solve $i reports wrong batch size"; cat "$workdir/batch$i.json"; fail=1; }
done
curl -fsS "http://$baddr/metrics" >"$workdir/bmetrics.txt"
for fam in \
    batch_size:histogram batch_window_wait_ns:histogram batch_achieved_ai:gauge; do
    name=${fam%:*}; kind=${fam#*:}
    grep -q "^# HELP $name " "$workdir/bmetrics.txt" || { echo "FAIL: missing # HELP for $name"; fail=1; }
    grep -q "^# TYPE $name $kind\$" "$workdir/bmetrics.txt" || { echo "FAIL: missing # TYPE $name $kind"; fail=1; }
done
# One batch of three jobs: batch_size's _count is the batches, _sum the jobs.
grep -q '^batch_size_count 1$' "$workdir/bmetrics.txt" || { echo "FAIL: batch_size_count != 1:"; grep '^batch_size_' "$workdir/bmetrics.txt" || true; fail=1; }
grep -q '^batch_size_sum 3$' "$workdir/bmetrics.txt" || { echo "FAIL: batch_size_sum != 3:"; grep '^batch_size_' "$workdir/bmetrics.txt" || true; fail=1; }
# The members' run reports carry the multi-RHS accounting: nrhs and the
# batch section with the amortized per-RHS wall time.
batchreport=$(grep -l "\"$bid\"" "$workdir/bruns"/*.json | head -1)
[ -n "$batchreport" ] || { echo "FAIL: no run report references batch $bid"; ls "$workdir/bruns"; fail=1; }
if [ -n "$batchreport" ]; then
    grep -q '"nrhs": *3' "$batchreport" || { echo "FAIL: batched run report missing nrhs=3"; cat "$batchreport"; fail=1; }
    grep -q '"batch"' "$batchreport" || { echo "FAIL: batched run report missing batch section"; fail=1; }
    grep -q '"per_rhs_ns"' "$batchreport" || { echo "FAIL: batch section missing per_rhs_ns"; fail=1; }
fi
kill "$bpid" 2>/dev/null || true
wait "$bpid" 2>/dev/null || true

echo "== fsaid solve CLI surfaces its trace id =="
"$workdir/fsaid" solve -addr "$addr" -matrix lap -precond fsaie >"$workdir/cli.out"
grep -q 'trace=[0-9a-f]\{32\}' "$workdir/cli.out" || { echo "FAIL: fsaid solve output has no trace id:"; cat "$workdir/cli.out"; fail=1; }

echo "== fsaid stats / jobs =="
"$workdir/fsaid" stats -addr "$addr"
"$workdir/fsaid" jobs -addr "$addr"

echo "== graceful shutdown on SIGTERM =="
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: fsaid did not exit on SIGTERM"
    fail=1
else
    wait "$pid" 2>/dev/null || true
    pid=""
fi

# With SMOKE_ARTIFACTS_DIR set (CI does), keep the captured profiles and
# run reports for upload; the ephemeral workdir is deleted either way.
if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR"
    cp -f "$workdir"/*.json "$workdir"/*.pb.gz "$SMOKE_ARTIFACTS_DIR"/ 2>/dev/null || true
    cp -rf "$workdir/runs" "$SMOKE_ARTIFACTS_DIR"/ 2>/dev/null || true
    echo "smoke artifacts kept in $SMOKE_ARTIFACTS_DIR"
fi

if [ "$fail" -ne 0 ]; then
    echo "service smoke test FAILED"
    exit 1
fi
echo "service smoke test OK"
