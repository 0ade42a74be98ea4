package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// testShard is one in-process fsaid daemon behind an httptest listener.
type testShard struct {
	srv *service.Server
	hs  *httptest.Server
}

func (s *testShard) kill() { s.hs.CloseClientConnections(); s.hs.Close() }

func startShard(t *testing.T) *testShard {
	t.Helper()
	srv := service.New(service.Options{Workers: 2})
	hs := httptest.NewServer(srv.Handler())
	sh := &testShard{srv: srv, hs: hs}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		hs.Close()
	})
	return sh
}

// ejectThreshold is the test cluster's EjectThreshold: failed probes before
// a shard leaves the ring.
const ejectThreshold = 3

// testCluster is a router fronting n in-process shards.
type testCluster struct {
	shards  []*testShard
	members *cluster.Membership
	router  *cluster.Router
	reg     *telemetry.Registry
	hs      *httptest.Server
}

func startCluster(t *testing.T, n int, opt cluster.RouterOptions) *testCluster {
	t.Helper()
	tc := &testCluster{}
	peers := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sh := startShard(t)
		tc.shards = append(tc.shards, sh)
		peers = append(peers, sh.hs.URL)
	}
	reg := telemetry.NewRegistry()
	tc.reg = reg
	ring := cluster.NewRing(0)
	tc.members = cluster.NewMembership(peers, ring, cluster.MembershipOptions{
		ProbeInterval:    50 * time.Millisecond,
		FailThreshold:    1,
		EjectThreshold:   ejectThreshold,
		RecoverThreshold: 1,
		Registry:         reg,
	})
	opt.Membership = tc.members
	opt.Ring = ring
	opt.Registry = reg
	opt.Traces = trace.NewRecorder(64, "", reg)
	tc.router = cluster.NewRouter(opt)
	tc.hs = httptest.NewServer(tc.router.Handler())
	t.Cleanup(func() {
		tc.hs.Close()
		tc.members.Close()
	})
	return tc
}

func (tc *testCluster) client() *client.Client { return client.New(tc.hs.URL) }

// shardFor returns the test shard listening at addr.
func (tc *testCluster) shardFor(t *testing.T, addr string) *testShard {
	t.Helper()
	for _, sh := range tc.shards {
		if sh.hs.URL == addr {
			return sh
		}
	}
	t.Fatalf("no shard at %s", addr)
	return nil
}

// topology fetches the router's /cluster document.
func (tc *testCluster) topology(t *testing.T) cluster.Topology {
	t.Helper()
	resp, err := http.Get(tc.hs.URL + "/cluster")
	if err != nil {
		t.Fatalf("GET /cluster: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: HTTP %d", resp.StatusCode)
	}
	var top cluster.Topology
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatalf("decode /cluster: %v", err)
	}
	return top
}

// TestRouterRegisterSolveAndPlacement drives the unchanged client API
// through the router: register places the matrix on primary+replica,
// solve executes on the owning shard, and a repeat solve is a cache hit.
func TestRouterRegisterSolveAndPlacement(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{Replicas: 1, WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register through router: %v", err)
	}
	if !info.Created || info.Fingerprint == "" {
		t.Fatalf("register info: %+v", info)
	}

	top := tc.topology(t)
	if len(top.Matrices) != 1 || len(top.Matrices[0].Owners) != 2 {
		t.Fatalf("topology after register: %+v", top.Matrices)
	}
	owners := top.Matrices[0].Owners

	// Both owners must already hold the matrix (replica readiness).
	for _, addr := range owners {
		if _, err := client.New(addr).Matrix(ctx, info.Fingerprint); err != nil {
			t.Fatalf("owner %s missing matrix: %v", addr, err)
		}
	}

	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie"})
	if err != nil {
		t.Fatalf("solve through router: %v", err)
	}
	if !resp.Converged || resp.Cache != service.CacheMiss || resp.Matrix != info.Fingerprint {
		t.Fatalf("cold routed solve: %+v", resp)
	}
	resp2, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie"})
	if err != nil {
		t.Fatalf("warm solve through router: %v", err)
	}
	if resp2.Cache != service.CacheHit {
		t.Fatalf("repeat routed solve cache = %q, want hit (same shard must serve it)", resp2.Cache)
	}
	for name, want := range map[string]int64{
		`cluster.requests{api="register"}`: 1, `cluster.requests{api="solve"}`: 2,
		`cluster.forwards{outcome="ok"}`: 2, "cluster.failovers": 0,
	} {
		if got := tc.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := tc.reg.Gauge(`cluster.peers{state="healthy"}`).Value(); got != 3 {
		t.Errorf(`cluster_peers{state="healthy"} = %v, want 3`, got)
	}
}

// TestRouterEnvelopePassThrough pins the byte-level compatibility
// contract: job_id, trace_id and the idempotent-replay marker arrive at
// the client exactly as the shard produced them.
func TestRouterEnvelopePassThrough(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{Replicas: 1, WarmThreshold: -1})
	ctx := context.Background()
	if _, err := tc.client().RegisterMatgen(ctx, "lap64x64", "lap"); err != nil {
		t.Fatalf("register: %v", err)
	}

	body := []byte(`{"matrix":"lap","precond":"fsaie"}`)
	tcx := trace.New()
	post := func() (*http.Response, service.SolveResponse) {
		req, _ := http.NewRequest(http.MethodPost, tc.hs.URL+"/api/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", tcx.Traceparent())
		req.Header.Set(service.HeaderIdempotencyKey, "router-pass-through-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: HTTP %d: %s", resp.StatusCode, raw)
		}
		var out service.SolveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp, out
	}

	_, first := post()
	if first.JobID == "" || first.TraceID != tcx.TraceID {
		t.Fatalf("first response envelope: job_id=%q trace_id=%q want trace %q",
			first.JobID, first.TraceID, tcx.TraceID)
	}
	hresp, second := post()
	if hresp.Header.Get(service.HeaderIdempotentReplay) != "1" {
		t.Fatal("replayed response lost the X-Fsaid-Idempotent-Replay header in transit")
	}
	if !second.Replayed || second.JobID != first.JobID || second.TraceID != first.TraceID {
		t.Fatalf("replay envelope altered: %+v vs %+v", second, first)
	}

	// The routing hop and the shard execution stitch under one trace id:
	// the router keeps its own span tree for the same id.
	resp, err := http.Get(tc.hs.URL + "/traces/" + tcx.TraceID)
	if err != nil {
		t.Fatalf("GET /traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router kept no trace for %s: HTTP %d", tcx.TraceID, resp.StatusCode)
	}
	var tr trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if tr.Node != "router" {
		t.Fatalf("router trace node = %q, want router", tr.Node)
	}
}

// TestRouterLoopGuard pins the forwarding loop guard: a request already
// bearing X-Fsaid-Forwarded-By is answered 508, not forwarded.
func TestRouterLoopGuard(t *testing.T) {
	tc := startCluster(t, 1, cluster.RouterOptions{WarmThreshold: -1})
	req, _ := http.NewRequest(http.MethodPost, tc.hs.URL+"/api/v1/solve",
		bytes.NewReader([]byte(`{"matrix":"x"}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HeaderForwardedBy, "another-router")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("forwarded request got HTTP %d, want 508", resp.StatusCode)
	}
	if got := tc.reg.Counter("cluster.loop_rejects").Value(); got != 1 {
		t.Fatalf("cluster_loop_rejects = %d, want 1", got)
	}
}

// TestRouterReregistersLostMatrix: a shard that lost a matrix the router
// cataloged (restarted without a store) answers the forwarded solve 404;
// the router replays the registration once and the solve succeeds.
func TestRouterReregistersLostMatrix(t *testing.T) {
	tc := startCluster(t, 1, cluster.RouterOptions{WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	shard := client.New(tc.shards[0].hs.URL)
	if err := shard.Unregister(ctx, info.Fingerprint); err != nil {
		t.Fatalf("unregister on the shard: %v", err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "jacobi"})
	if err != nil || !resp.Converged {
		t.Fatalf("solve after the shard lost the matrix: %+v err=%v", resp, err)
	}
	if _, err := shard.Matrix(ctx, info.Fingerprint); err != nil {
		t.Fatalf("the shard does not hold the replayed matrix: %v", err)
	}
	if got := tc.reg.Counter("cluster.reregistrations").Value(); got != 1 {
		t.Fatalf("cluster_reregistrations = %d, want 1", got)
	}
}

// TestRouterReplaysEveryAlias: a shard that lost a matrix gets it back
// under every alias the router cataloged, not only the newest, while one
// more alias joins the catalog, and a routed DELETE forgets every alias,
// the middle one too.
func TestRouterReplaysEveryAlias(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()
	var fp string
	for _, name := range []string{"lap", "lap2", "lap3"} {
		info, err := c.RegisterMatgen(ctx, "lap64x64", name)
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		fp = info.Fingerprint
	}
	// What a restart without -data-dir leaves: no shard holds the matrix.
	for _, sh := range tc.shards {
		_ = client.New(sh.hs.URL).Unregister(ctx, fp)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"lap3", "lap", "lap2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Solve(ctx, service.SolveRequest{Matrix: name, Precond: "jacobi"})
			if err != nil || !resp.Converged {
				t.Errorf("routed solve on %s after the shards lost the matrix: %+v err=%v", name, resp, err)
			}
		}()
	}
	if _, err := c.RegisterMatgen(ctx, "lap64x64", "lap4"); err != nil {
		t.Errorf("register lap4: %v", err)
	}
	wg.Wait()
	if err := c.Unregister(ctx, "lap2"); err != nil {
		t.Fatalf("routed delete: %v", err)
	}
	if got := tc.router.Aliases(); len(got) != 0 {
		t.Fatalf("aliases outlive their deleted matrix: %v", got)
	}
}

// TestRouterRejectsBadRegistrationLikeAShard: the router decodes a
// registration with the daemon's own decoder, so a malformed or
// non-symmetric upload gets a shard's answer, status and body, from the
// router itself.
func TestRouterRejectsBadRegistrationLikeAShard(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{WarmThreshold: -1})
	post := func(base, contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/api/v1/matrices", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", base, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, c := range []struct{ name, contentType, body string }{
		{"garbage", "text/plain", "not a matrix\n"},
		{"non-symmetric", "text/plain", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4\n1 2 1\n2 2 4\n"},
		{"unknown-spec", "application/json", `{"matgen":"no-such-matrix"}`},
		{"trailing-data", "application/json", `{"matgen":"lap64x64"} {}`},
	} {
		code, body := post(tc.shards[0].hs.URL, c.contentType, c.body)
		rcode, rbody := post(tc.hs.URL, c.contentType, c.body)
		if code != http.StatusBadRequest || rcode != code || rbody != body {
			t.Fatalf("%s: routed %d %q, direct %d %q", c.name, rcode, rbody, code, body)
		}
	}
	if top := tc.topology(t); len(top.Matrices) != 0 {
		t.Fatalf("rejected registrations were cataloged: %+v", top.Matrices)
	}
}

// TestRouterPlacementIsStable: a matrix's owners depend on its fingerprint
// and the live ring only, so cataloging 72 matrices one at a time over a
// fixed three-shard ring never moves an earlier one.
func TestRouterPlacementIsStable(t *testing.T) {
	ring := cluster.NewRing(0)
	// Never started: the peers are never probed or contacted.
	members := cluster.NewMembership(shards(3), ring, cluster.MembershipOptions{})
	rt := cluster.NewRouter(cluster.RouterOptions{Membership: members, Ring: ring})
	first := map[string][]string{}
	for i, fp := range testKeys(72) {
		rt.Catalog(fp, "")
		for _, m := range rt.Topology().(cluster.Topology).Matrices {
			want, seen := first[m.Fingerprint]
			if !seen {
				first[m.Fingerprint] = m.Owners
			} else if !slices.Equal(m.Owners, want) {
				t.Fatalf("cataloging matrix %d moved %.12s from %v to %v", i+1, m.Fingerprint, want, m.Owners)
			}
		}
	}
}

// TestRouterKeepsShardAfterNonConvergedSolve: a shard's /healthz does not
// depend on the outcome of one client's solve, so a shard that answered a
// max_iter 1 solve stays healthy through EjectThreshold probe rounds.
func TestRouterKeepsShardAfterNonConvergedSolve(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{Replicas: 1, WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()
	if _, err := c.RegisterMatgen(ctx, "lap64x64", "lap"); err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "jacobi", MaxIter: 1})
	if err != nil || resp.Converged {
		t.Fatalf("max_iter 1 solve: %+v err=%v, want a non-converged answer", resp, err)
	}
	for i := 0; i < ejectThreshold; i++ {
		tc.members.ProbeAll()
	}
	for _, sh := range tc.shards {
		if st := tc.members.State(sh.hs.URL); st != cluster.PeerHealthy {
			t.Fatalf("shard %s is %q after %d probes, want healthy", sh.hs.URL, st, ejectThreshold)
		}
	}
}

// TestRouterFailover kills the primary shard and asserts the next solve
// lands on the replica with no client-visible failure — and that the
// trace id survives the failover hop.
func TestRouterFailover(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{Replicas: 1, WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie"}); err != nil {
		t.Fatalf("solve before failover: %v", err)
	}

	top := tc.topology(t)
	primary := top.Matrices[0].Owners[0]
	tc.shardFor(t, primary).kill()

	tcx := trace.New()
	resp, _, err := c.SolveTraced(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie"}, tcx)
	if err != nil {
		t.Fatalf("solve during primary outage must fail over, got: %v", err)
	}
	if !resp.Converged || resp.Matrix != info.Fingerprint {
		t.Fatalf("failover solve: %+v", resp)
	}
	if resp.TraceID != tcx.TraceID {
		t.Fatalf("failover lost the trace id: %q want %q", resp.TraceID, tcx.TraceID)
	}
	if st := tc.members.State(primary); st == cluster.PeerHealthy {
		t.Fatalf("killed primary still %q after data-path failure", st)
	}
}

// TestRouterWarmReplication pins the hot-factor replication path: once a
// fingerprint's routed solves keep hitting the cache, the replica shard
// builds the same factor via setup_only, so a failover lands warm. A
// resilient solve's hits replicate too: the warm-up drops "resilient".
func TestRouterWarmReplication(t *testing.T) {
	for _, req := range []service.SolveRequest{
		{Matrix: "lap", Precond: "fsaie"},
		{Matrix: "lap", Precond: "fsaie", Resilient: true},
	} {
		t.Run(fmt.Sprintf("resilient=%v", req.Resilient), func(t *testing.T) {
			tc := startCluster(t, 2, cluster.RouterOptions{Replicas: 1, WarmThreshold: 1})
			c := tc.client()
			ctx := context.Background()
			if _, err := c.RegisterMatgen(ctx, "lap64x64", "lap"); err != nil {
				t.Fatalf("register: %v", err)
			}
			// First solve: miss on the primary. Second: hit, crossing the
			// warm threshold and triggering replication.
			for i := 0; i < 2; i++ {
				if _, err := c.Solve(ctx, req); err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
			}
			top := tc.topology(t)
			replica := top.Matrices[0].Owners[1]
			rc := client.New(replica)
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err := rc.Stats(ctx)
				if err == nil && st.Cache.Entries >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica %s never cached the hot factor (stats: %+v, err: %v)", replica, st, err)
				}
				time.Sleep(50 * time.Millisecond)
			}

			// The replica's warm copy must produce the bit-identical
			// solution: kill the primary and compare X against the
			// primary's answer.
			req.ReturnSolution = true
			want, err := c.Solve(ctx, req)
			if err != nil {
				t.Fatalf("solve for reference X: %v", err)
			}
			tc.shardFor(t, top.Matrices[0].Owners[0]).kill()
			got, err := c.Solve(ctx, req)
			if err != nil {
				t.Fatalf("failover solve: %v", err)
			}
			if got.Cache != service.CacheHit {
				t.Fatalf("failover solve cache = %q, want hit from the replicated factor", got.Cache)
			}
			if len(got.X) != len(want.X) {
				t.Fatalf("solution lengths differ: %d vs %d", len(got.X), len(want.X))
			}
			for i := range want.X {
				if got.X[i] != want.X[i] {
					t.Fatalf("X[%d] differs after failover: %v vs %v (factors not bit-identical)",
						i, got.X[i], want.X[i])
				}
			}
		})
	}
}

// TestRouterSetupOnly pins the warming primitive on the shard API itself:
// setup_only builds and caches the factor without running CG.
func TestRouterSetupOnly(t *testing.T) {
	sh := startShard(t)
	c := client.New(sh.hs.URL)
	ctx := context.Background()
	if _, err := c.RegisterMatgen(ctx, "lap64x64", "lap"); err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie", SetupOnly: true})
	if err != nil {
		t.Fatalf("setup_only: %v", err)
	}
	if resp.Status != service.StatusSetupOnly || resp.Iterations != 0 || resp.Cache != service.CacheMiss {
		t.Fatalf("setup_only response: %+v", resp)
	}
	warm, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "fsaie"})
	if err != nil {
		t.Fatalf("solve after setup_only: %v", err)
	}
	if warm.Cache != service.CacheHit || !warm.Converged {
		t.Fatalf("solve after setup_only should be warm: %+v", warm)
	}
	// Invalid combinations are rejected up front.
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "jacobi", SetupOnly: true}); err == nil {
		t.Fatal("setup_only with jacobi must be rejected")
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Resilient: true, SetupOnly: true}); err == nil {
		t.Fatal("setup_only with resilient must be rejected")
	}
}
