package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/matgen"
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

// testRouter is one router over a test cluster's shards.
type testRouter struct {
	members *cluster.Membership
	router  *cluster.Router
	reg     *telemetry.Registry
	hs      *httptest.Server
}

// testCluster is a router fronting n in-process shards.
type testCluster struct {
	shards []*testShard
	*testRouter
}

func startCluster(t *testing.T, n int, opt cluster.RouterOptions) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		tc.shards = append(tc.shards, startShard(t))
	}
	tc.testRouter = tc.startRouter(t, opt)
	return tc
}

// startRouter starts a router over tc's shards with its own membership,
// ring and registry: what a second fsaid route, or a restarted one, is.
func (tc *testCluster) startRouter(t *testing.T, opt cluster.RouterOptions) *testRouter {
	t.Helper()
	peers := make([]string, 0, len(tc.shards))
	for _, sh := range tc.shards {
		peers = append(peers, sh.hs.URL)
	}
	reg := telemetry.NewRegistry()
	ring := cluster.NewRing(0)
	members := cluster.NewMembership(peers, ring, cluster.MembershipOptions{
		ProbeInterval:    50 * time.Millisecond,
		FailThreshold:    1,
		EjectThreshold:   ejectThreshold,
		RecoverThreshold: 1,
		Registry:         reg,
	})
	opt.Membership = members
	opt.Ring = ring
	opt.Registry = reg
	opt.Traces = trace.NewRecorder(64, "", reg)
	tr := &testRouter{members: members, router: cluster.NewRouter(opt), reg: reg}
	tr.hs = httptest.NewServer(tr.router.Handler())
	t.Cleanup(func() {
		tr.hs.Close()
		tr.members.Close()
	})
	return tr
}

func (tr *testRouter) client() *client.Client { return client.New(tr.hs.URL) }

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
func (tr *testRouter) topology(t *testing.T) cluster.Topology {
	t.Helper()
	resp, err := http.Get(tr.hs.URL + "/cluster")
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

// TestRouterReregistersLostMatrix: the primary loses a matrix (restarted
// without a store) while the replica keeps it. A routed solve, and then a
// routed GET, each get the primary's 404, replay the matrix from the
// replica and answer 200, and the primary holds the matrix again.
func TestRouterReregistersLostMatrix(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{WarmThreshold: -1})
	c := tc.client()
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	primary := client.New(tc.topology(t).Matrices[0].Owners[0])
	for i, routed := range map[string]func() error{
		"solve": func() error {
			resp, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap", Precond: "jacobi"})
			if err == nil && !resp.Converged {
				err = fmt.Errorf("not converged: %+v", resp)
			}
			return err
		},
		"GET": func() error { _, err := c.Matrix(ctx, "lap"); return err },
	} {
		if err := primary.Unregister(ctx, info.Fingerprint); err != nil {
			t.Fatalf("unregister on the primary: %v", err)
		}
		if err := routed(); err != nil {
			t.Fatalf("routed %s after the primary lost the matrix: %v", i, err)
		}
		if got, err := primary.Matrix(ctx, info.Fingerprint); err != nil || !slices.Equal(got.Aliases, []string{"lap"}) {
			t.Fatalf("after the routed %s the primary holds %+v, err %v", i, got, err)
		}
	}
	if got := tc.reg.Counter("cluster.reregistrations").Value(); got != 2 {
		t.Fatalf("cluster_reregistrations = %d, want 2", got)
	}
}

// TestRouterReplaysEveryAlias: a primary that lost a matrix gets it back
// from the replica under every alias, not only the newest, while one more
// alias registers, and a routed DELETE forgets every alias, the middle one
// too.
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
	primary := client.New(tc.topology(t).Matrices[0].Owners[0])
	if err := primary.Unregister(ctx, fp); err != nil {
		t.Fatalf("unregister on the primary: %v", err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"lap3", "lap", "lap2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Solve(ctx, service.SolveRequest{Matrix: name, Precond: "jacobi"})
			if err != nil || !resp.Converged {
				t.Errorf("routed solve on %s after the primary lost the matrix: %+v err=%v", name, resp, err)
			}
		}()
	}
	if _, err := c.RegisterMatgen(ctx, "lap64x64", "lap4"); err != nil {
		t.Errorf("register lap4: %v", err)
	}
	wg.Wait()
	got, err := primary.Matrix(ctx, fp)
	if err != nil {
		t.Fatalf("the primary does not hold the replayed matrix: %v", err)
	}
	// lap4 may land before the replay or after it; the replayed three keep
	// their registration order.
	replayed := slices.DeleteFunc(slices.Clone(got.Aliases), func(a string) bool { return a == "lap4" })
	if len(got.Aliases) != 4 || !slices.Equal(replayed, []string{"lap", "lap2", "lap3"}) {
		t.Fatalf("the primary holds the matrix as %v, want lap, lap2, lap3 in that order and lap4", got.Aliases)
	}
	if err := c.Unregister(ctx, "lap2"); err != nil {
		t.Fatalf("routed delete: %v", err)
	}
	if got := tc.router.Refs(); len(got) != 0 {
		t.Fatalf("references outlive their deleted matrix: %v", got)
	}
	tc.requireNowhere(t, fp)
}

// TestRouterNoLiveCopyAnswersLikeADaemon: when no live shard holds a
// matrix (every owner restarted without a data dir), there is nothing to
// replay, and a routed solve or GET answers what a single daemon answers
// after the same restart: its 404, status and body.
func TestRouterNoLiveCopyAnswersLikeADaemon(t *testing.T) {
	tc := startCluster(t, 2, cluster.RouterOptions{WarmThreshold: -1})
	ctx := context.Background()
	info, err := tc.client().RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	for _, sh := range tc.shards {
		if err := client.New(sh.hs.URL).Unregister(ctx, info.Fingerprint); err != nil {
			t.Fatalf("unregister on %s: %v", sh.hs.URL, err)
		}
	}
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/api/v1/solve", `{"matrix":"lap","precond":"jacobi"}`},
		{http.MethodGet, "/api/v1/matrices/lap", ""},
	} {
		code, body := send(t, req.method, tc.hs.URL+req.path, req.body)
		dcode, dbody := send(t, req.method, tc.shards[0].hs.URL+req.path, req.body)
		if code != http.StatusNotFound || code != dcode || body != dbody {
			t.Fatalf("%s %s: routed %d %q, direct %d %q", req.method, req.path, code, body, dcode, dbody)
		}
	}
	if got := tc.reg.Counter("cluster.reregistrations").Value(); got != 0 {
		t.Fatalf("cluster_reregistrations = %d with no live copy, want 0", got)
	}
}

// send makes one request with a JSON body (none when empty) and returns
// the status and the body.
func send(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// requireNowhere fails the test if any shard holds matrix fp.
func (tc *testCluster) requireNowhere(t *testing.T, fp string) {
	t.Helper()
	for _, sh := range tc.shards {
		code, body := send(t, http.MethodGet, sh.hs.URL+"/api/v1/matrices/"+fp, "")
		if code != http.StatusNotFound {
			t.Fatalf("shard %s still holds %.12s: HTTP %d %s", sh.hs.URL, fp, code, body)
		}
	}
}

// registerAll registers each spec through r under its aliases and returns
// the fingerprint of each spec.
func registerAll(t *testing.T, r *testRouter, aliases map[string][]string) map[string]string {
	t.Helper()
	fps := map[string]string{}
	for spec, names := range aliases {
		for _, name := range names {
			info, err := r.client().RegisterMatgen(context.Background(), spec, name)
			if err != nil {
				t.Fatalf("register %s as %s: %v", spec, name, err)
			}
			fps[spec] = info.Fingerprint
		}
	}
	return fps
}

// fleetAliases are three matrices under six aliases.
var fleetAliases = map[string][]string{
	"lap64x64":         {"lap", "lap2"},
	"elas36x36-s2":     {"elas"},
	"band2200-bw12-d2": {"band", "band2", "band3"},
}

// TestFreshRouterServesEveryAlias: the shards are the catalog, so a router
// started over shards that another router filled answers every alias
// solve with that router's status, and every GET and the listing with its
// status and body.
func TestFreshRouterServesEveryAlias(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	registerAll(t, tc.testRouter, fleetAliases)
	fresh := tc.startRouter(t, cluster.RouterOptions{WarmThreshold: -1})
	for _, names := range fleetAliases {
		for _, name := range names {
			solve := `{"matrix":"` + name + `","precond":"jacobi"}`
			code, _ := send(t, http.MethodPost, tc.hs.URL+"/api/v1/solve", solve)
			fcode, fbody := send(t, http.MethodPost, fresh.hs.URL+"/api/v1/solve", solve)
			if code != http.StatusOK || fcode != code {
				t.Errorf("solve %s: first router %d, fresh router %d %s", name, code, fcode, fbody)
			}
			code, body := send(t, http.MethodGet, tc.hs.URL+"/api/v1/matrices/"+name, "")
			fcode, fbody = send(t, http.MethodGet, fresh.hs.URL+"/api/v1/matrices/"+name, "")
			if code != http.StatusOK || fcode != code || fbody != body {
				t.Errorf("GET %s: first router %d %s, fresh router %d %s", name, code, body, fcode, fbody)
			}
		}
	}
	code, body := send(t, http.MethodGet, tc.hs.URL+"/api/v1/matrices", "")
	fcode, fbody := send(t, http.MethodGet, fresh.hs.URL+"/api/v1/matrices", "")
	if code != http.StatusOK || fcode != code || fbody != body {
		t.Errorf("listing: first router %d %s, fresh router %d %s", code, body, fcode, fbody)
	}
}

// TestRouterCountsOneListing: the routed listing, /api/v1/stats' matrices
// and /cluster's matrices read one merged shard listing, so a fresh router
// reports the same three counts as the router that registered the
// matrices.
func TestRouterCountsOneListing(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	registerAll(t, tc.testRouter, fleetAliases)
	fresh := tc.startRouter(t, cluster.RouterOptions{WarmThreshold: -1})
	for i, r := range []*testRouter{tc.testRouter, fresh} {
		list, err := r.client().Matrices(context.Background())
		if err != nil {
			t.Fatalf("router %d listing: %v", i, err)
		}
		_, body := send(t, http.MethodGet, r.hs.URL+"/api/v1/stats", "")
		var st cluster.ClusterStats
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("router %d stats: %v", i, err)
		}
		if top := r.topology(t); len(list) != 3 || st.Matrices != 3 || len(top.Matrices) != 3 {
			t.Fatalf("router %d counts: listing %d, stats %d, /cluster %d; want 3 each",
				i, len(list), st.Matrices, len(top.Matrices))
		}
	}
}

// TestFreshRouterDeleteReachesEveryCopy: a routed DELETE goes to every
// live shard, so one through a router that never saw the matrix leaves no
// shard holding it.
func TestFreshRouterDeleteReachesEveryCopy(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	fps := registerAll(t, tc.testRouter, fleetAliases)
	fresh := tc.startRouter(t, cluster.RouterOptions{WarmThreshold: -1})
	for spec, names := range fleetAliases {
		if err := fresh.client().Unregister(context.Background(), names[len(names)-1]); err != nil {
			t.Fatalf("delete %s through the fresh router: %v", names[len(names)-1], err)
		}
		tc.requireNowhere(t, fps[spec])
	}
}

// TestDeletedMatrixStaysDeleted: a matrix deleted through one router stays
// deleted for a second router that had registered and served it too. The
// second router's cached fingerprint finds no live copy to replay, so its
// solve answers the shards' 404 and no shard holds the matrix again.
func TestDeletedMatrixStaysDeleted(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	other := tc.startRouter(t, cluster.RouterOptions{WarmThreshold: -1})
	ctx := context.Background()
	req := service.SolveRequest{Matrix: "lap", Precond: "jacobi"}
	var fp string
	for _, r := range []*testRouter{tc.testRouter, other} {
		info, err := r.client().RegisterMatgen(ctx, "lap64x64", "lap")
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		fp = info.Fingerprint
		if _, err := r.client().Solve(ctx, req); err != nil {
			t.Fatalf("solve before the delete: %v", err)
		}
	}
	if err := tc.client().Unregister(ctx, "lap"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var apiErr *client.APIError
	if _, err := other.client().Solve(ctx, req); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("solve through the other router after the delete: %v, want HTTP 404", err)
	}
	tc.requireNowhere(t, fp)
}

// TestRouterFollowsAReboundAlias: after router B deletes alias a and binds
// it to another matrix, router A, which cached a's old fingerprint, solves
// the new matrix on its next solve on a. The new matrix is picked so that
// the old one's primary does not hold it: the stale answer's 404 has no
// live copy to replay, and only a fresh lookup finds the new binding.
func TestRouterFollowsAReboundAlias(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	b := tc.startRouter(t, cluster.RouterOptions{WarmThreshold: -1})
	ctx := context.Background()
	first, err := tc.client().RegisterMatgen(ctx, "lap64x64", "a")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req := service.SolveRequest{Matrix: "a", Precond: "jacobi"}
	if _, err := tc.client().Solve(ctx, req); err != nil {
		t.Fatalf("solve on the first matrix: %v", err)
	}
	if err := b.client().Unregister(ctx, "a"); err != nil {
		t.Fatalf("delete through router B: %v", err)
	}
	next := tc.specOff(t, tc.router.Owners(first.Fingerprint)[0])
	second, err := b.client().RegisterMatgen(ctx, next.Name, "a")
	if err != nil {
		t.Fatalf("rebind a to %s through router B: %v", next.Name, err)
	}
	resp, err := tc.client().Solve(ctx, req)
	if err != nil || resp.Matrix != second.Fingerprint {
		t.Fatalf("router A's solve on a after the rebind: %+v err=%v, want matrix %.12s", resp, err, second.Fingerprint)
	}
}

// specOff returns the first suite matrix whose owners leave out shard.
func (tc *testCluster) specOff(t *testing.T, shard string) matgen.Spec {
	t.Helper()
	for _, spec := range matgen.Suite() {
		if !slices.Contains(tc.router.Owners(spec.Generate().Fingerprint()), shard) {
			return spec
		}
	}
	t.Fatalf("every suite matrix places on %s", shard)
	return matgen.Spec{}
}

// TestRoutedRegistrationKeepsAliasesUnique: registering a second matrix
// under an alias the fleet already binds gets the daemon's 409, status and
// body, from the router itself; the second matrix reaches no shard and
// every shard that binds the alias still binds it to the first matrix.
// The second matrix is picked so that one of its owners does not hold the
// alias and would accept it.
func TestRoutedRegistrationKeepsAliasesUnique(t *testing.T) {
	tc := startCluster(t, 3, cluster.RouterOptions{WarmThreshold: -1})
	ctx := context.Background()
	first, err := tc.client().RegisterMatgen(ctx, "lap64x64", "a")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	owner := tc.router.Owners(first.Fingerprint)[0]
	spec := tc.specOff(t, owner)
	again := `{"matgen":"` + spec.Name + `","name":"a"}`
	code, body := send(t, http.MethodPost, owner+"/api/v1/matrices", again)
	rcode, rbody := send(t, http.MethodPost, tc.hs.URL+"/api/v1/matrices", again)
	if code != http.StatusConflict || rcode != code || rbody != body {
		t.Fatalf("second matrix under a: routed %d %q, direct %d %q", rcode, rbody, code, body)
	}
	tc.requireNowhere(t, spec.Generate().Fingerprint())
	held := 0
	for _, sh := range tc.shards {
		code, body := send(t, http.MethodGet, sh.hs.URL+"/api/v1/matrices/a", "")
		var info service.MatrixInfo
		if code == http.StatusOK && json.Unmarshal([]byte(body), &info) == nil && info.Fingerprint == first.Fingerprint {
			held++
		} else if code != http.StatusNotFound {
			t.Fatalf("shard %s binds a as HTTP %d %s", sh.hs.URL, code, body)
		}
	}
	if held != 2 {
		t.Fatalf("%d shards bind a to the first matrix, want its 2 owners", held)
	}
}

// tinyMTX is a 3x3 SPD matrix in MatrixMarket symmetric form.
const tinyMTX = `%%MatrixMarket matrix coordinate real symmetric
3 3 5
1 1 4
2 1 -1
2 2 4
3 2 -1
3 3 4
`

// TestAliasWithQueryCharacters: an alias with '+' and '&' survives the
// registration's query string, on a shard and through the router: the
// MatrixMarket upload lists that exact alias and solves by it.
func TestAliasWithQueryCharacters(t *testing.T) {
	const alias = "a+b&c"
	ctx := context.Background()
	for _, base := range []string{startShard(t).hs.URL, startCluster(t, 2, cluster.RouterOptions{WarmThreshold: -1}).hs.URL} {
		c := client.New(base)
		info, err := c.RegisterMatrixMarket(ctx, strings.NewReader(tinyMTX), alias)
		if err != nil {
			t.Fatalf("%s: upload: %v", base, err)
		}
		list, err := c.Matrices(ctx)
		if err != nil || len(list) != 1 || list[0].Name != alias {
			t.Fatalf("%s: listing %+v err=%v, want one matrix aliased %q", base, list, err, alias)
		}
		resp, err := c.Solve(ctx, service.SolveRequest{Matrix: alias, Precond: "jacobi"})
		if err != nil || resp.Matrix != info.Fingerprint {
			t.Fatalf("%s: solve on %q: %+v err=%v", base, alias, resp, err)
		}
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
// and the live ring only, so placing 72 matrices one at a time over a
// fixed three-shard ring never moves an earlier one.
func TestRouterPlacementIsStable(t *testing.T) {
	ring := cluster.NewRing(0)
	// Never started: the peers are never probed or contacted.
	members := cluster.NewMembership(shards(3), ring, cluster.MembershipOptions{})
	rt := cluster.NewRouter(cluster.RouterOptions{Membership: members, Ring: ring})
	keys := testKeys(72)
	first := map[string][]string{}
	for i, fp := range keys {
		first[fp] = rt.Owners(fp)
		for _, earlier := range keys[:i+1] {
			if got := rt.Owners(earlier); len(got) != 2 || !slices.Equal(got, first[earlier]) {
				t.Fatalf("placing matrix %d moved %.12s from %v to %v", i+1, earlier, first[earlier], got)
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
