#!/usr/bin/env bash
# Crash-recovery drill for the fsaid solve daemon (docs/robustness.md):
#
#   1. start fsaid with a durable -data-dir, register a matrix under two
#      aliases, run a cold solve capturing the solution vector;
#   2. SIGKILL the daemon mid-solve (a held job owns a slot when it dies);
#   3. restart on the same -data-dir and assert the recovered factor serves
#      a warm cache hit whose solution is bit-identical to the pre-crash X,
#      and a warm hit through the second alias;
#   4. flip one bit in the persisted factor entry, restart again, and assert
#      the entry is quarantined (store_corrupt_total=1), the daemon stays
#      healthy, and the solve falls back to a recomputing cache miss.
#
# Run via `make crash-drill`. With SMOKE_ARTIFACTS_DIR set, a listing of
# the data dir is kept for upload.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# json_num FILE KEY -> first numeric value of "KEY": N
json_num() {
    sed -n 's/.*"'"$2"'": *\(-\{0,1\}[0-9][0-9]*\).*/\1/p' "$1" | head -1
}

# start_daemon LABEL -> launches fsaid serve on the shared -data-dir, sets
# $pid and $addr, logging to stderr-LABEL.log.
start_daemon() {
    local log="$workdir/stderr-$1.log"
    : >"$log" # exists before the backgrounded redirect opens it
    "$workdir/fsaid" serve -listen 127.0.0.1:0 -runs-dir "$workdir/runs-$1" \
        -data-dir "$workdir/data" 2>"$log" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#.*msg="fsaid listening" addr=http://\([^ ]*\).*#\1#p' "$log" | head -1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "fsaid exited early:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "no listen address announced"; cat "$log"; exit 1; }
    echo "daemon ($1) at $addr"
}

solve() { # solve BODY OUTFILE
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" \
        "http://$addr/api/v1/solve" >"$2"
}

# same_x A.json B.json -> 0 iff the two solve responses carry bit-identical
# solution vectors. python3 compares the IEEE-754 bytes; without python3,
# fall back to textually diffing the "x" array of the compact response
# (Go emits shortest round-trippable decimals, so equal text <=> equal
# bits).
same_x() {
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$1" "$2" <<'EOF'
import json, struct, sys
vec = lambda p: b"".join(struct.pack("<d", v) for v in json.load(open(p))["x"])
sys.exit(0 if vec(sys.argv[1]) == vec(sys.argv[2]) else 1)
EOF
    else
        grep -o '"x": *\[[^]]*\]' "$1" >"$workdir/xa.txt"
        grep -o '"x": *\[[^]]*\]' "$2" >"$workdir/xb.txt"
        [ -s "$workdir/xa.txt" ] && cmp -s "$workdir/xa.txt" "$workdir/xb.txt"
    fi
}

# flip_bit FILE -> XORs one bit in the middle of FILE (python3), or
# overwrites two mid-file bytes with a fixed pattern (dd fallback).
flip_bit() {
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$1" <<'EOF'
import sys
p = sys.argv[1]
data = bytearray(open(p, "rb").read())
data[len(data) // 2] ^= 0x40
open(p, "wb").write(bytes(data))
EOF
    else
        local size; size=$(wc -c <"$1")
        printf '\252\125' | dd of="$1" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null
    fi
}

echo "== building fsaid =="
go build -o "$workdir/fsaid" ./cmd/fsaid

fail=0

echo "== phase 1: cold solve against a durable data dir =="
start_daemon 1
"$workdir/fsaid" register -addr "$addr" -matgen lap64x64 -name lap
"$workdir/fsaid" register -addr "$addr" -matgen lap64x64 -name lap2
solve '{"matrix":"lap","precond":"fsaie","return_solution":true}' "$workdir/cold.json"
grep -q '"cache": *"miss"' "$workdir/cold.json" || { echo "FAIL: cold solve not a miss"; cat "$workdir/cold.json"; fail=1; }
grep -q '"converged": *true' "$workdir/cold.json" || { echo "FAIL: cold solve did not converge"; fail=1; }
grep -q '"x": *\[' "$workdir/cold.json" || { echo "FAIL: cold solve returned no solution vector"; fail=1; }

echo "== phase 2: SIGKILL mid-solve =="
# Park a job in the solve path (hold_ms) so the crash lands mid-operation,
# with a slot held.
curl -sS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"lap","precond":"jacobi","hold_ms":5000,"max_iter":5}' \
    "http://$addr/api/v1/solve" >"$workdir/held.json" 2>&1 &
holdpid=$!
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/api/v1/stats" >"$workdir/stats.json" 2>/dev/null || true
    [ "$(json_num "$workdir/stats.json" inflight)" = "1" ] && break
    sleep 0.05
done
[ "$(json_num "$workdir/stats.json" inflight)" = "1" ] || { echo "FAIL: held job never went in flight"; fail=1; }
{ kill -9 "$pid" && wait "$pid"; } 2>/dev/null || true
pid=""
wait "$holdpid" 2>/dev/null || true

echo "== phase 3: restart, expect a warm bit-identical solve =="
start_daemon 2
grep -q 'msg="store recovered"' "$workdir/stderr-2.log" || { echo "FAIL: no store-recovery log line"; cat "$workdir/stderr-2.log"; fail=1; }
grep -q 'msg="store recovered".*matrices=1.*factors=1' "$workdir/stderr-2.log" \
    || { echo "FAIL: recovery did not report matrices=1 factors=1"; grep 'store recovered' "$workdir/stderr-2.log" || true; fail=1; }
solve '{"matrix":"lap","precond":"fsaie","return_solution":true}' "$workdir/warm.json"
grep -q '"cache": *"hit"' "$workdir/warm.json" || { echo "FAIL: post-crash solve not a cache hit"; cat "$workdir/warm.json"; fail=1; }
grep -q '"converged": *true' "$workdir/warm.json" || { echo "FAIL: post-crash solve did not converge"; fail=1; }
warm_setup=$(json_num "$workdir/warm.json" setup_ns)
[ "${warm_setup:-1}" -eq 0 ] || { echo "FAIL: recovered factor still paid setup: ${warm_setup}ns"; fail=1; }
if same_x "$workdir/cold.json" "$workdir/warm.json"; then
    echo "solution vectors bit-identical across the crash"
else
    echo "FAIL: post-crash warm X differs from pre-crash cold X"
    fail=1
fi

if solve '{"matrix":"lap2","precond":"fsaie"}' "$workdir/warm-lap2.json"; then
    grep -q '"cache": *"hit"' "$workdir/warm-lap2.json" || { echo "FAIL: post-crash solve on lap2 not a cache hit"; cat "$workdir/warm-lap2.json"; fail=1; }
else
    echo "FAIL: the second alias lap2 did not survive the crash"
    fail=1
fi

echo "== phase 3b: retrying CLI client reports its attempt count =="
"$workdir/fsaid" solve -addr "$addr" -matrix lap -precond fsaie -retries 2 >"$workdir/cli.out"
grep -q 'attempts=1' "$workdir/cli.out" || { echo "FAIL: fsaid solve output has no attempts count:"; cat "$workdir/cli.out"; fail=1; }

echo "== phase 4: corrupt the stored factor, expect quarantine-not-fatal =="
{ kill -9 "$pid" && wait "$pid"; } 2>/dev/null || true
pid=""
factor_file=$(find "$workdir/data/factors" -type f | head -1)
[ -n "$factor_file" ] || { echo "FAIL: no persisted factor entry to corrupt"; exit 1; }
flip_bit "$factor_file"
start_daemon 3
grep -q 'store factor entry corrupt' "$workdir/stderr-3.log" || { echo "FAIL: no quarantine log line"; cat "$workdir/stderr-3.log"; fail=1; }
[ -n "$(find "$workdir/data/quarantine" -type f 2>/dev/null)" ] || { echo "FAIL: quarantine directory is empty"; fail=1; }
curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
grep -q '^store_corrupt_total 1$' "$workdir/metrics.txt" || { echo "FAIL: store_corrupt_total != 1"; grep '^store_' "$workdir/metrics.txt" || true; fail=1; }
curl -fsS "http://$addr/healthz" >"$workdir/health.json"
grep -q '"status": *"ok"' "$workdir/health.json" || { echo "FAIL: daemon unhealthy after quarantine:"; cat "$workdir/health.json"; fail=1; }
solve '{"matrix":"lap","precond":"fsaie"}' "$workdir/recomputed.json"
grep -q '"cache": *"miss"' "$workdir/recomputed.json" || { echo "FAIL: solve after quarantine not a recomputing miss"; cat "$workdir/recomputed.json"; fail=1; }
grep -q '"converged": *true' "$workdir/recomputed.json" || { echo "FAIL: recomputed solve did not converge"; fail=1; }

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

# Keep a listing of the data dir (the entry files are the store) and the
# drill's solve responses for CI upload.
if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR/store"
    ls -lR "$workdir/data" >"$SMOKE_ARTIFACTS_DIR/store/data-dir.txt" 2>&1 || true
    cp -f "$workdir"/cold.json "$workdir"/warm.json "$workdir"/recomputed.json "$SMOKE_ARTIFACTS_DIR/store/" 2>/dev/null || true
    echo "crash-drill artifacts kept in $SMOKE_ARTIFACTS_DIR/store"
fi

if [ "$fail" -ne 0 ]; then
    echo "crash drill FAILED"
    exit 1
fi
echo "crash drill OK"
