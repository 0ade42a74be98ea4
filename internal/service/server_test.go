package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// newTestServer spins up a full daemon on an httptest listener and returns
// a client for it.
func newTestServer(t *testing.T, opt service.Options) (*service.Server, *client.Client) {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	s := service.New(opt)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, client.New(hs.URL)
}

const tinyMTX = `%%MatrixMarket matrix coordinate real symmetric
3 3 5
1 1 4.0
2 2 4.0
3 3 4.0
2 1 -1.0
3 2 -1.0
`

func TestRegisterMatgenAndDedup(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if !info.Created || info.Fingerprint == "" || info.Rows != 64*64 {
		t.Fatalf("first register: %+v", info)
	}
	again, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if again.Created || again.Fingerprint != info.Fingerprint {
		t.Fatalf("dedup: %+v", again)
	}
	if _, err := c.RegisterMatgen(ctx, "lap72x72", "lap"); err == nil {
		t.Fatal("alias collision with different content must fail")
	}
	if _, err := c.RegisterMatgen(ctx, "no-such-spec", ""); err == nil {
		t.Fatal("unknown spec must fail")
	}
}

func TestRegisterMatrixMarketUpload(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatrixMarket(ctx, strings.NewReader(tinyMTX), "tiny")
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if !info.Created || info.Rows != 3 || info.NNZ != 7 {
		t.Fatalf("upload info: %+v", info)
	}
	got, err := c.Matrix(ctx, "tiny")
	if err != nil || got.Fingerprint != info.Fingerprint {
		t.Fatalf("lookup by name: %+v err=%v", got, err)
	}
}

// TestMatrixMarketGetRegistersTheSameMatrix: GET /api/v1/matrices/<ref>
// with Accept: text/x-matrix-market writes every stored entry, so a matrix
// symmetric only to within the registration tolerance registers from that
// text, on another daemon, as the same fingerprint. MatrixInfo.Aliases
// lists every alias in registration order.
func TestMatrixMarketGetRegistersTheSameMatrix(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	_, other := newTestServer(t, service.Options{})
	ctx := context.Background()
	// a21 differs from a12 by 1e-12, inside 1e-10·max|a_ij|.
	const nearlySymmetric = `%%MatrixMarket matrix coordinate real general
3 3 7
1 1 4
1 2 -1
2 1 -1.000000000001
2 2 4
2 3 -1
3 2 -1
3 3 4
`
	var info service.MatrixInfo
	for _, name := range []string{"x", "y"} {
		var err error
		if info, err = c.RegisterMatrixMarket(ctx, strings.NewReader(nearlySymmetric), name); err != nil {
			t.Fatalf("upload as %s: %v", name, err)
		}
	}
	if info.Name != "x" || !reflect.DeepEqual(info.Aliases, []string{"x", "y"}) {
		t.Fatalf("after two aliases: %+v", info)
	}
	req, _ := http.NewRequest(http.MethodGet, c.Base()+"/api/v1/matrices/y", nil)
	req.Header.Set("Accept", service.MatrixMarketType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("MatrixMarket GET: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != service.MatrixMarketType {
		t.Fatalf("MatrixMarket GET: HTTP %d %s: %s", resp.StatusCode, resp.Header.Get("Content-Type"), text)
	}
	got, err := other.RegisterMatrixMarket(ctx, bytes.NewReader(text), "")
	if err != nil || got.Fingerprint != info.Fingerprint {
		t.Fatalf("the GET's text registers as %+v err=%v, want fingerprint %.12s", got, err, info.Fingerprint)
	}
}

// TestColdThenWarmSolve is the tentpole acceptance check at the API level:
// the second solve with identical setup options must be a cache hit, report
// exactly zero setup time, and produce a bit-identical solution.
func TestColdThenWarmSolve(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, service.Options{RunsDir: dir, Metrics: telemetry.NewRegistry()})
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie", ReturnSolution: true}

	cold, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.Cache != service.CacheMiss {
		t.Fatalf("cold solve cache=%q, want %q", cold.Cache, service.CacheMiss)
	}
	if cold.SetupNS <= 0 {
		t.Fatalf("cold solve must pay setup, got %d ns", cold.SetupNS)
	}
	if !cold.Converged {
		t.Fatalf("cold solve did not converge: %+v", cold)
	}

	warm, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Cache != service.CacheHit {
		t.Fatalf("warm solve cache=%q, want %q", warm.Cache, service.CacheHit)
	}
	if warm.SetupNS != 0 {
		t.Fatalf("warm solve must report zero setup, got %d ns", warm.SetupNS)
	}
	if warm.Iterations != cold.Iterations {
		t.Fatalf("warm iterations %d != cold %d", warm.Iterations, cold.Iterations)
	}
	if len(warm.X) != len(cold.X) {
		t.Fatalf("solution lengths differ: %d vs %d", len(warm.X), len(cold.X))
	}
	for i := range warm.X {
		if warm.X[i] != cold.X[i] {
			t.Fatalf("warm solve not bit-identical at x[%d]: %v vs %v",
				i, warm.X[i], cold.X[i])
		}
	}

	// The run reports carry the service section with the cache outcome.
	for _, want := range []struct {
		name, cache string
	}{{cold.Report, service.CacheMiss}, {warm.Report, service.CacheHit}} {
		if want.name == "" {
			t.Fatal("solve response missing report name")
		}
		rep, err := experiments.ReadRunReportFile(filepath.Join(dir, want.name))
		if err != nil {
			t.Fatalf("read report %s: %v", want.name, err)
		}
		if len(rep.Entries) != 1 || rep.Entries[0].Service == nil {
			t.Fatalf("report %s missing service section", want.name)
		}
		svc := rep.Entries[0].Service
		if svc.Cache != want.cache || svc.Fingerprint != info.Fingerprint {
			t.Fatalf("report %s service section: %+v", want.name, svc)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats after cold+warm: %+v", st.Cache)
	}
}

// TestAdaptiveJobIsAccounted: an adaptive setup runs through fsai.Compute
// like every other, so a cold adaptive job's run report lists its setup
// phases and its trace's setup span holds them.
func TestAdaptiveJobIsAccounted(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, service.Options{RunsDir: dir})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "adaptive"})
	if err != nil || resp.Cache != service.CacheMiss || !resp.Converged {
		t.Fatalf("cold adaptive solve: %+v, err %v", resp, err)
	}
	want := "[base-pattern extend precalc filter frobenius-solve]"
	rep, err := experiments.ReadRunReportFile(filepath.Join(dir, resp.Report))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, ph := range rep.Entries[0].SetupPhases {
		phases = append(phases, ph.Name)
	}
	if fmt.Sprint(phases) != want {
		t.Errorf("run report setup_phases %v, want %s", phases, want)
	}
	tr, ok := s.Traces().Get(resp.TraceID)
	if !ok {
		t.Fatalf("no trace %s", resp.TraceID)
	}
	setup, ok := findSpan(tr.Root, "setup")
	if !ok || len(setup.Children) != 1 || setup.Children[0].Name != "fsai-setup:FSAIE(sp)" {
		t.Fatalf("setup span %+v, want one fsai-setup:FSAIE(sp) child", setup)
	}
	var spans []string
	for _, ch := range setup.Children[0].Children {
		spans = append(spans, ch.Name)
	}
	if fmt.Sprint(spans) != want {
		t.Errorf("setup phase spans %v, want %s", spans, want)
	}
}

// findSpan returns the first span named name in a depth-first walk of s.
func findSpan(s telemetry.SpanSnapshot, name string) (telemetry.SpanSnapshot, bool) {
	if s.Name == name {
		return s, true
	}
	for _, ch := range s.Children {
		if f, ok := findSpan(ch, name); ok {
			return f, true
		}
	}
	return telemetry.SpanSnapshot{}, false
}

// TestCacheKeyHoldsOnlyReadKnobs: a request that differs from a cached one
// only in knobs its factor does not read is served that factor. FSAI reads
// neither the filter nor the line size, an adaptive base neither the
// pattern power nor tau; a knob the factor reads still misses.
func TestCacheKeyHoldsOnlyReadKnobs(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		req   service.SolveRequest
		cache string
	}{
		{service.SolveRequest{Precond: "fsai", Filter: 0.01}, service.CacheMiss},
		{service.SolveRequest{Precond: "fsai", Filter: 0.1}, service.CacheHit},
		{service.SolveRequest{Precond: "fsai", Filter: 0.1, LineBytes: 256}, service.CacheHit},
		{service.SolveRequest{Precond: "fsai", PatternPower: 2}, service.CacheMiss},
		{service.SolveRequest{Precond: "adaptive", PatternPower: 1}, service.CacheMiss},
		{service.SolveRequest{Precond: "adaptive", PatternPower: 2, Tau: 0.1}, service.CacheHit},
		{service.SolveRequest{Precond: "adaptive", LineBytes: 128}, service.CacheMiss},
	} {
		step.req.Matrix = info.Fingerprint
		resp, err := c.Solve(ctx, step.req)
		if err != nil || resp.Cache != step.cache {
			t.Fatalf("step %d %+v: cache %q, err %v; want %q", i, step.req, resp.Cache, err, step.cache)
		}
	}
}

// TestQueueSaturationReturns429 drills admission control: with one slot and
// no queue, a held job saturates the daemon and the next request must be
// shed with 429 + Retry-After.
func TestQueueSaturationReturns429(t *testing.T) {
	_, c := newTestServer(t, service.Options{MaxInflight: 1, QueueCap: -1})
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	holdDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, service.SolveRequest{
			Matrix: info.Fingerprint, Precond: "jacobi", HoldMS: 1500, MaxIter: 5,
		})
		holdDone <- err
	}()
	// Wait until the holding job owns the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Queue.Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("holding job never admitted: %+v", st.Queue)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err = c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi"})
	var apiErr *client.APIError
	if err == nil {
		t.Fatal("saturated daemon accepted a job, want 429")
	}
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("saturation error: %v", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("Retry-After %s, want >= 1s", apiErr.RetryAfter)
	}
	if apiErr.Body.RetryAfterS < 1 {
		t.Fatalf("error body retry_after_s = %d, want >= 1", apiErr.Body.RetryAfterS)
	}

	if err := <-holdDone; err != nil {
		t.Fatalf("holding job: %v", err)
	}
	st, _ := c.Stats(ctx)
	if st.Queue.Rejected < 1 || st.Queue.Completed < 1 {
		t.Fatalf("queue stats after drill: %+v", st.Queue)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	e, ok := err.(*client.APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestSolveValidation(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	cases := []service.SolveRequest{
		{},               // missing matrix
		{Matrix: "nope"}, // unregistered
		{Matrix: info.Fingerprint, Precond: "ic0"},                       // not servable
		{Matrix: info.Fingerprint, RHS: []float64{1, 2, 3}},              // wrong RHS length
		{Matrix: info.Fingerprint, Precond: "adaptive", Resilient: true}, // not a recovery rung
	}
	for i, req := range cases {
		if _, err := c.Solve(ctx, req); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
	}
}

// TestResilientSolveUsesCache: a resilient job takes its factor from the
// preconditioner cache like any job. The cold one builds it (miss, setup
// paid), the next one reuses it (hit, no setup), and both answer with the
// plain solve's bit-identical x.
func TestResilientSolveUsesCache(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{
		Matrix: info.Fingerprint, Precond: "fsaie", Resilient: true, ReturnSolution: true,
	}
	cold, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("cold resilient solve: %v", err)
	}
	if cold.Cache != service.CacheMiss || !cold.Converged || cold.SetupNS <= 0 || cold.Precond != "fsaie" {
		t.Fatalf("cold resilient solve: %+v, want a converged fsaie miss that paid setup", cold)
	}
	warm, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("warm resilient solve: %v", err)
	}
	if warm.Cache != service.CacheHit || !warm.Converged || warm.SetupNS != 0 {
		t.Fatalf("warm resilient solve: %+v, want a converged hit with setup_ns 0", warm)
	}
	req.Resilient = false
	plain, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("plain solve: %v", err)
	}
	for _, r := range []*service.SolveResponse{cold, warm} {
		if r.Iterations != plain.Iterations || len(r.X) != len(plain.X) {
			t.Fatalf("job %s: %d iterations, %d values; plain solve %d, %d",
				r.JobID, r.Iterations, len(r.X), plain.Iterations, len(plain.X))
		}
		for i := range plain.X {
			if r.X[i] != plain.X[i] {
				t.Fatalf("job %s: x[%d] = %v, plain solve %v", r.JobID, i, r.X[i], plain.X[i])
			}
		}
	}
	if st, _ := c.Stats(ctx); st.Cache.Entries != 1 {
		t.Fatalf("cache holds %d factors, want the one all three jobs shared", st.Cache.Entries)
	}
}

// TestResilientShiftRetriesThroughDaemon: an uploaded operator with one
// slightly negative diagonal entry fails every FSAI rung's setup, shifted
// or not, and the chain ends on plain CG. The daemon logs the attempt
// sequence resilience.Solve has always logged, and caches no factor: the
// failed builds are not entries and shifted factors are never cached.
func TestResilientShiftRetriesThroughDaemon(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, service.Options{RunsDir: dir})
	ctx := context.Background()
	a, _ := faultinject.New(11).PerturbDiagonal(matgen.Laplace2D(12, 12), -4.0000001)
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, a, true); err != nil {
		t.Fatal(err)
	}
	info, err := c.RegisterMatrixMarket(ctx, &mtx, "indefinite")
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie", Resilient: true})
	if err != nil {
		t.Fatalf("resilient solve: %v", err)
	}
	if resp.Converged || resp.Status != "indefinite-curvature" || resp.Precond != "none" ||
		resp.Cache != service.CacheUncached {
		t.Fatalf("resilient solve: %+v, want an uncached indefinite-curvature answer from none", resp)
	}
	rep, err := experiments.ReadRunReportFile(filepath.Join(dir, resp.Report))
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		stage, rung string
		shift       float64
		status      string
	}
	var want []step
	for _, rung := range []string{"fsaie", "fsaie-sp", "fsai"} {
		for _, shift := range []float64{0, 4e-6, 8e-6, 1.6e-5, 3.2e-5} {
			want = append(want, step{"setup", rung, shift, "error:not-spd"})
		}
	}
	want = append(want,
		step{"setup", "jacobi", 0, "ok (1 diagonal entries repaired)"},
		step{"solve", "jacobi", 0, "indefinite-curvature"},
		step{"setup", "none", 0, "ok"},
		step{"solve", "none", 0, "indefinite-curvature"})
	var got []step
	for _, at := range rep.Entries[0].Resilience.Attempts {
		got = append(got, step{at.Stage, at.Precond, at.Shift, at.Status})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attempts:\n got %v\nwant %v", got, want)
	}
	if st, _ := c.Stats(ctx); st.Cache.Entries != 0 {
		t.Fatalf("cache holds %d factors after failed and shifted setups, want 0", st.Cache.Entries)
	}
}

func TestJobTimeoutReportsCancelled(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap72x72", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{
		Matrix: info.Fingerprint, Precond: "none", TimeoutMS: 1,
		Tol: 1e-300, MaxIter: 100000000,
	})
	if err != nil {
		t.Fatalf("timed-out solve: %v", err)
	}
	if resp.Converged || resp.Status != "cancelled" {
		t.Fatalf("timeout status=%q converged=%v, want cancelled", resp.Status, resp.Converged)
	}
}

func TestUnregisterEvictsCachedFactors(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: "lap"}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st, _ := c.Stats(ctx); st.Cache.Entries != 1 {
		t.Fatalf("cache stats before unregister: %+v", st.Cache)
	}
	if err := c.Unregister(ctx, "lap"); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if st, _ := c.Stats(ctx); st.Cache.Entries != 0 {
		t.Fatal("unregister did not evict the cached factor")
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint}); err == nil {
		t.Fatal("solve on unregistered matrix must fail")
	}
}

// TestDeleteResolvesLikeGet: when a reference is one matrix's fingerprint
// and another matrix's name, GET and DELETE both resolve it to the
// fingerprint's matrix.
func TestDeleteResolvesLikeGet(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	a, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RegisterMatgen(ctx, "lap72x72", a.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Matrix(ctx, a.Fingerprint); err != nil || got.Fingerprint != a.Fingerprint {
		t.Fatalf("GET by A's fingerprint = %+v (err %v), want A", got, err)
	}
	if err := c.Unregister(ctx, a.Fingerprint); err != nil {
		t.Fatal(err)
	}
	list, err := c.Matrices(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Fingerprint != b.Fingerprint {
		t.Fatalf("after DELETE by A's fingerprint, registered = %+v; want only B (%s)", list, b.Fingerprint)
	}
}

func TestJobsEndpointRecordsLifecycle(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != resp.JobID || jobs[0].State != service.JobDone {
		t.Fatalf("jobs listing: %+v", jobs)
	}
	ji, err := c.Job(ctx, resp.JobID)
	if err != nil || ji.Cache != service.CacheUncached || ji.Iterations != resp.Iterations {
		t.Fatalf("job record: %+v err=%v", ji, err)
	}
}

// TestObsEndpointsMounted verifies the observability server rides on the
// same listener as the API, including the service gauges on /metrics.
func TestObsEndpointsMounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Metrics: reg})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/healthz": `"status"`,
		"/metrics": "service_cache_misses 1",
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body missing %q:\n%s", path, resp.StatusCode, want, body)
		}
	}
}

// TestServerStartShutdown exercises the real listener path and graceful
// shutdown.
func TestServerStartShutdown(t *testing.T) {
	s := service.New(service.Options{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New("http://" + addr.String())
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats over real listener: %v", err)
	}
	shCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

func TestStatsDocumentShape(t *testing.T) {
	_, c := newTestServer(t, service.Options{MaxInflight: 3, QueueCap: 7, CacheEntries: 5})
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queue.MaxInflight != 3 || st.Queue.Capacity != 7 || st.Cache.Capacity != 5 {
		t.Fatalf("stats: %+v", st)
	}
	// The document round-trips as JSON (the CLI consumes it).
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}
