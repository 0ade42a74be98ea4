#!/usr/bin/env bash
# Distributed-fleet drill for the fsaid cluster router (docs/cluster.md):
#
#   1. start three store-backed shards and a router fronting them
#      (replication factor 1, aggressive warm threshold);
#   2. register and solve through the router with the unchanged client API:
#      registering a second matrix leaves the first one's owners unchanged,
#      cold solve is a miss on the owning shard, repeat solve a warm hit,
#      and the hot factor is replicated to the replica shard; then SIGKILL
#      the router and start a fresh one over the same shards: it lists lap
#      with the same owners, serves a routed GET of lap, and its first solve
#      on lap is a warm hit, with zero failed requests;
#   3. SIGKILL the primary mid-traffic: every client request keeps
#      succeeding (failover to the warm replica), the traced solve keeps
#      its trace id across the failover hop, and the failover solution is
#      bit-identical to the pre-kill X;
#   4. restart the killed shard on the same address and data dir: the
#      membership prober re-admits it (rebalance), and routed solves still
#      answer warm;
#   5. solve warm through the router and directly on the replica: both are
#      cache hits.
#
# Run via `make cluster-drill`. With SMOKE_ARTIFACTS_DIR set, the drill's
# solve responses and the router topology snapshots are kept for upload.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do
        [ -n "$p" ] && { kill -9 "$p" && wait "$p"; } 2>/dev/null || true
    done
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

# start_shard LABEL [ADDR] -> launches fsaid serve with a per-shard durable
# data dir and sets SHARD_PID/SHARD_ADDR. Runs in the parent shell (no
# command substitution) so the pid lands in the cleanup array and stays a
# waitable child. A second argument pins the listen address (the restart
# phase reuses the original).
SHARD_PID=""
SHARD_ADDR=""
start_shard() {
    local label=$1 listen=${2:-127.0.0.1:0}
    local log="$workdir/shard-$label.log"
    : >"$log" # exists before the backgrounded redirect opens it
    "$workdir/fsaid" serve -listen "$listen" -data-dir "$workdir/data-$label" \
        -runs-dir "$workdir/runs-$label" 2>"$log" &
    SHARD_PID=$!
    pids+=("$SHARD_PID")
    SHARD_ADDR=""
    for _ in $(seq 1 100); do
        SHARD_ADDR=$(sed -n 's#.*msg="fsaid listening" addr=http://\([^ ]*\).*#\1#p' "$log" | head -1)
        [ -n "$SHARD_ADDR" ] && return 0
        kill -0 "$SHARD_PID" 2>/dev/null || { echo "shard $label exited early:" >&2; cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    echo "shard $label announced no address" >&2
    cat "$log" >&2
    exit 1
}

# start_router LABEL -> launches fsaid route over the three shards and sets
# ROUTER_PID/ROUTER_ADDR, in the parent shell like start_shard.
ROUTER_PID=""
ROUTER_ADDR=""
start_router() {
    local log="$workdir/router-$1.log"
    : >"$log"
    "$workdir/fsaid" route -listen 127.0.0.1:0 -peers "$addr1,$addr2,$addr3" \
        -replicas 1 -warm-threshold 1 -probe-interval 200ms 2>"$log" &
    ROUTER_PID=$!
    pids+=("$ROUTER_PID")
    ROUTER_ADDR=""
    for _ in $(seq 1 100); do
        ROUTER_ADDR=$(sed -n 's#.*msg="fsaid router listening" addr=http://\([^ ]*\).*#\1#p' "$log" | head -1)
        [ -n "$ROUTER_ADDR" ] && return 0
        kill -0 "$ROUTER_PID" 2>/dev/null || { echo "router exited early:" >&2; cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    echo "router announced no address" >&2
    cat "$log" >&2
    exit 1
}

# lap_owners TOPOLOGY.json -> the owners of the matrix named lap, primary
# first, space-separated and without the scheme. /cluster is indented JSON
# with each matrix's name on the line before its owners array.
lap_owners() {
    awk '/"name": "lap",/ {f = 1} f && /"http:\/\// {gsub(/[ ",]|http:\/\//, ""); printf "%s ", $0} f && /\]/ {exit}' "$1"
}

# same_x A.json B.json -> 0 iff both solve responses carry bit-identical
# solution vectors (same comparison as the crash drill).
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

echo "== building fsaid =="
go build -o "$workdir/fsaid" ./cmd/fsaid

fail=0

echo "== phase 1: three shards + router =="
start_shard 1
pid1=$SHARD_PID addr1=$SHARD_ADDR
start_shard 2
pid2=$SHARD_PID addr2=$SHARD_ADDR
start_shard 3
pid3=$SHARD_PID addr3=$SHARD_ADDR
start_router 1
rpid=$ROUTER_PID router=$ROUTER_ADDR
echo "router at $router, shards at $addr1 $addr2 $addr3"

echo "== phase 2: register and solve through the router =="
"$workdir/fsaid" register -addr "$router" -matgen lap64x64 -name lap
curl -fsS "http://$router/cluster" >"$workdir/topology-1.json"
owners=$(lap_owners "$workdir/topology-1.json")
read -r primary replica _ <<<"$owners"
[ -n "$primary" ] && [ -n "$replica" ] || { echo "FAIL: could not read lap's owners from /cluster"; cat "$workdir/topology-1.json"; exit 1; }
echo "primary=$primary replica=$replica"

# Owners depend on the fingerprint and the live ring only: registering
# another matrix must not move lap.
"$workdir/fsaid" register -addr "$router" -matgen jump64x64-b8-j1e3
curl -fsS "http://$router/cluster" >"$workdir/topology-1b.json"
owners_after=$(lap_owners "$workdir/topology-1b.json")
[ "$owners_after" = "$owners" ] \
    || { echo "FAIL: registering another matrix moved lap's owners: $owners-> $owners_after"; fail=1; }

solve_body='{"matrix":"lap","precond":"fsaie","return_solution":true}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/cold.json"
grep -q '"cache": *"miss"' "$workdir/cold.json" || { echo "FAIL: cold routed solve not a miss"; cat "$workdir/cold.json"; fail=1; }
grep -q '"converged": *true' "$workdir/cold.json" || { echo "FAIL: cold routed solve did not converge"; fail=1; }

curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/warm.json"
grep -q '"cache": *"hit"' "$workdir/warm.json" || { echo "FAIL: repeat routed solve not a warm hit"; cat "$workdir/warm.json"; fail=1; }

# The warm hit happened on the owning shard, not anywhere else.
curl -fsS "http://$primary/api/v1/stats" >"$workdir/primary-stats.json"
hits=$(json_num "$workdir/primary-stats.json" hits)
[ "${hits:-0}" -ge 1 ] || { echo "FAIL: owning shard reports no cache hit (hits=$hits)"; fail=1; }

echo "== phase 2b: SIGKILL the router, start a fresh one over the same shards =="
# The shards are the catalog: a router that never saw a registration
# resolves lap by asking them, places it on the same owners and lands on
# the primary's warm factor.
{ kill -9 "$rpid" && wait "$rpid"; } 2>/dev/null || true
start_router 2
rpid=$ROUTER_PID router=$ROUTER_ADDR
echo "fresh router at $router"
restart_fail=0
curl -fsS "http://$router/cluster" >"$workdir/topology-1c.json" || restart_fail=1
owners_fresh=$(lap_owners "$workdir/topology-1c.json")
[ "$owners_fresh" = "$owners" ] \
    || { echo "FAIL: the fresh router lists lap's owners as '$owners_fresh', want '$owners'"; restart_fail=1; }
curl -fsS "http://$router/api/v1/matrices/lap" >"$workdir/fresh-get.json" \
    || { echo "FAIL: routed GET of lap through the fresh router"; restart_fail=1; }
if curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/fresh-warm.json"; then
    grep -q '"cache": *"hit"' "$workdir/fresh-warm.json" \
        || { echo "FAIL: first solve through the fresh router not a warm hit"; cat "$workdir/fresh-warm.json"; restart_fail=1; }
else
    echo "FAIL: solve through the fresh router failed"
    restart_fail=1
fi
[ "$restart_fail" -eq 0 ] || fail=1
[ "$restart_fail" -eq 0 ] && echo "fresh router: same owners for lap, GET 200, warm hit, zero failed requests"

echo "== phase 3: hot factor replicates to the replica shard =="
replicated=0
for _ in $(seq 1 100); do
    curl -fsS "http://$replica/api/v1/stats" >"$workdir/replica-stats.json" 2>/dev/null || true
    if [ "$(json_num "$workdir/replica-stats.json" entries)" -ge 1 ] 2>/dev/null; then
        replicated=1
        break
    fi
    sleep 0.1
done
[ "$replicated" -eq 1 ] || { echo "FAIL: replica never cached the hot factor"; cat "$workdir/replica-stats.json"; fail=1; }
echo "replica cache warmed"

echo "== phase 4: SIGKILL the primary mid-traffic =="
# Sustained client traffic across the kill: every request must succeed.
primary_pid=""
primary_label=""
for pair in "1 $pid1 $addr1" "2 $pid2 $addr2" "3 $pid3 $addr3"; do
    read -r l p a <<<"$pair"
    if [ "$a" = "$primary" ]; then
        primary_pid=$p
        primary_label=$l
    fi
done
[ -n "$primary_pid" ] || { echo "FAIL: primary pid not found"; exit 1; }

traffic_fail=0
for i in $(seq 1 12); do
    if [ "$i" -eq 4 ]; then
        { kill -9 "$primary_pid" && wait "$primary_pid"; } 2>/dev/null || true
        echo "primary killed at request $i"
    fi
    if ! curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
        "http://$router/api/v1/solve" >"$workdir/traffic-$i.json"; then
        echo "FAIL: routed request $i failed during the outage"
        traffic_fail=1
        continue
    fi
    grep -q '"converged": *true' "$workdir/traffic-$i.json" \
        || { echo "FAIL: routed request $i did not converge"; traffic_fail=1; }
done
[ "$traffic_fail" -eq 0 ] || fail=1
[ "$traffic_fail" -eq 0 ] && echo "zero failed client requests across the kill"

# A traced solve during the outage keeps its trace id, serves from the
# replica's warm cache, and returns the bit-identical solution.
tid="11112222333344445555666677778888"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -H "traceparent: 00-$tid-aaaabbbbccccdddd-01" -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/failover.json"
[ "$(json_str "$workdir/failover.json" trace_id)" = "$tid" ] \
    || { echo "FAIL: failover solve lost the trace id"; cat "$workdir/failover.json"; fail=1; }
grep -q '"cache": *"hit"' "$workdir/failover.json" \
    || { echo "FAIL: failover solve not warm (replica cache missing)"; cat "$workdir/failover.json"; fail=1; }
if same_x "$workdir/cold.json" "$workdir/failover.json"; then
    echo "failover X bit-identical to the pre-kill solution"
else
    echo "FAIL: failover X differs from the pre-kill solution"
    fail=1
fi
# The same trace id resolves on the router (routing hop) and on the shard
# that executed the solve (span stitching across nodes).
curl -fsS "http://$router/traces/$tid" >/dev/null \
    || { echo "FAIL: router kept no trace for $tid"; fail=1; }
curl -fsS "http://$replica/traces/$tid" >/dev/null \
    || { echo "FAIL: executing shard kept no trace for $tid"; fail=1; }

echo "== phase 5: restart the killed shard, expect rebalance =="
# Same address AND same durable data dir: the restarted shard rehydrates
# its registry from the store instead of coming back empty.
start_shard "$primary_label" "$primary"
rejoined=0
for _ in $(seq 1 150); do
    curl -fsS "http://$router/cluster" >"$workdir/topology-2.json" 2>/dev/null || true
    if python3 -c '
import json, sys
top = json.load(open(sys.argv[1]))
states = {p["addr"].removeprefix("http://"): p["state"] for p in top["peers"]}
sys.exit(0 if states.get(sys.argv[2]) == "healthy" else 1)' \
        "$workdir/topology-2.json" "$primary" 2>/dev/null; then
        rejoined=1
        break
    fi
    grep -q '"addr": *"http://'"$primary"'"' "$workdir/topology-2.json" 2>/dev/null \
        && grep -q '"state": *"healthy"' "$workdir/topology-2.json" 2>/dev/null \
        && ! command -v python3 >/dev/null 2>&1 && { rejoined=1; break; }
    sleep 0.2
done
[ "$rejoined" -eq 1 ] || { echo "FAIL: restarted shard never rejoined"; cat "$workdir/topology-2.json"; fail=1; }
echo "restarted shard rejoined the ring"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/rebalanced.json"
grep -q '"converged": *true' "$workdir/rebalanced.json" \
    || { echo "FAIL: solve after rebalance did not converge"; cat "$workdir/rebalanced.json"; fail=1; }
if same_x "$workdir/cold.json" "$workdir/rebalanced.json"; then
    echo "post-rebalance X bit-identical"
else
    echo "FAIL: post-rebalance X differs"
    fail=1
fi

echo "== phase 6: warm routed and direct replica solves =="
curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
    "http://$router/api/v1/solve" >"$workdir/routed-warm.json"
direct_target=$(json_str "$workdir/routed-warm.json" matrix)
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"matrix":"'"$direct_target"'","precond":"fsaie","return_solution":true}' \
    "http://$replica/api/v1/solve" >"$workdir/direct-warm.json"
grep -q '"cache": *"hit"' "$workdir/routed-warm.json" || { echo "FAIL: routed solve not warm"; fail=1; }
grep -q '"cache": *"hit"' "$workdir/direct-warm.json" || { echo "FAIL: direct replica solve not warm"; fail=1; }

echo "== router health and metrics =="
curl -fsS "http://$router/healthz" >"$workdir/router-health.json" || true
curl -fsS "http://$router/metrics" >"$workdir/router-metrics.txt"
grep -q '^cluster_failovers [1-9]' "$workdir/router-metrics.txt" \
    || { echo "FAIL: cluster_failovers not counted"; grep '^cluster_' "$workdir/router-metrics.txt" || true; fail=1; }
grep -q '^cluster_warmups{outcome="ok"} [1-9]' "$workdir/router-metrics.txt" \
    || { echo "FAIL: cluster_warmups ok not counted"; grep '^cluster_warmups' "$workdir/router-metrics.txt" || true; fail=1; }
curl -fsS "http://$router/version" >/dev/null || { echo "FAIL: router /version unreachable"; fail=1; }

if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR/cluster"
    cp -f "$workdir"/topology-*.json "$workdir"/cold.json "$workdir"/failover.json \
        "$workdir"/router-metrics.txt "$SMOKE_ARTIFACTS_DIR/cluster/" 2>/dev/null || true
    echo "cluster-drill artifacts kept in $SMOKE_ARTIFACTS_DIR/cluster"
fi

if [ "$fail" -ne 0 ]; then
    echo "cluster drill FAILED"
    exit 1
fi
echo "cluster drill OK"
