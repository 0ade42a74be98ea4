package service_test

// Robustness-layer tests: durable state across restarts, quarantine of
// corrupt store entries, delete-vs-solve races, idempotent retries, deadline
// propagation, and memory-watermark degradation. These drive the same
// contracts the crash drill (scripts/crash_drill.sh) proves end-to-end.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// newDurableServer builds a server over a durable store at dir and returns
// it with its base URL. The caller owns shutdown via the returned stop func
// (safe to call once; also closes the store).
func newDurableServer(t *testing.T, dir string, opt service.Options) (*service.Server, string, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Metrics: opt.Metrics})
	if err != nil {
		t.Fatalf("store open: %v", err)
	}
	opt.Store = st
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	s := service.New(opt)
	hs := httptest.NewServer(s.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			_ = s.Close()
		})
	}
	t.Cleanup(stop)
	return s, hs.URL, stop
}

func TestWarmSolveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := service.SolveRequest{Precond: "fsaie", ReturnSolution: true}

	s1, url1, stop1 := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c1 := client.New(url1)
	info, err := c1.RegisterMatgen(ctx, "lap64x64", "lap")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req.Matrix = info.Fingerprint
	cold, err := c1.Solve(ctx, req)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.Cache != service.CacheMiss || !cold.Converged {
		t.Fatalf("cold solve: cache=%s converged=%v", cold.Cache, cold.Converged)
	}
	if st := s1.Store().Stats(); st.Matrices != 1 || st.Factors != 1 {
		t.Fatalf("store after cold solve: %+v", st)
	}
	stop1() // stops serving; the store needs no goodbye, so this is a crash to it

	s2, url2, _ := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	if st := s2.Store().Stats(); st.Matrices != 1 || st.Factors != 1 || st.Corrupt != 0 {
		t.Fatalf("store after reopen: %+v", st)
	}
	c2 := client.New(url2)
	// The alias must survive the restart alongside the operator.
	if got, err := c2.Matrix(ctx, "lap"); err != nil || got.Fingerprint != info.Fingerprint {
		t.Fatalf("alias lookup after restart: %+v err=%v", got, err)
	}
	warm, err := c2.Solve(ctx, req)
	if err != nil {
		t.Fatalf("warm solve after restart: %v", err)
	}
	if warm.Cache != service.CacheHit || warm.SetupNS != 0 {
		t.Fatalf("restart must rehydrate the factor: cache=%s setup=%d", warm.Cache, warm.SetupNS)
	}
	if len(warm.X) != len(cold.X) {
		t.Fatalf("solution lengths differ: %d vs %d", len(warm.X), len(cold.X))
	}
	for i := range warm.X {
		if warm.X[i] != cold.X[i] {
			t.Fatalf("x[%d] = %v before restart, %v after: not bit-identical", i, cold.X[i], warm.X[i])
		}
	}
}

// TestAliasesSurviveRestart: every alias a matrix was registered under,
// not only the first, resolves after a restart, to the same fingerprint and
// the same MatrixInfo.Name as before it.
func TestAliasesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, url1, stop1 := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c1 := client.New(url1)
	// An unnamed matgen registration is aliased by its spec; the second
	// registration of the same content adds an alias.
	for _, name := range []string{"", "second"} {
		if _, err := c1.RegisterMatgen(ctx, "lap64x64", name); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	// An unnamed MatrixMarket upload, named by its second upload.
	for _, name := range []string{"", "foo"} {
		if _, err := c1.RegisterMatrixMarket(ctx, strings.NewReader(tinyMTX), name); err != nil {
			t.Fatalf("upload %q: %v", name, err)
		}
	}
	before := map[string]service.MatrixInfo{}
	for _, ref := range []string{"lap64x64", "second", "foo"} {
		info, err := c1.Matrix(ctx, ref)
		if err != nil {
			t.Fatalf("lookup %q before restart: %v", ref, err)
		}
		before[ref] = info
	}
	stop1()

	_, url2, _ := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c2 := client.New(url2)
	for ref, want := range before {
		got, err := c2.Matrix(ctx, ref)
		if err != nil {
			t.Fatalf("lookup %q after restart: %v", ref, err)
		}
		if got.Fingerprint != want.Fingerprint || got.Name != want.Name {
			t.Fatalf("%q after restart = %+v, before = %+v", ref, got, want)
		}
	}
}

// TestListingIsFingerprintOrder: GET /api/v1/matrices lists in
// fingerprint order whatever the registration order, and a restart on the
// same data directory lists the same matrices in the same order.
func TestListingIsFingerprintOrder(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	specs := []string{"lap64x64", "elas36x36-s2", "band2200-bw12-d2"}
	fps := map[string]string{}
	for _, name := range specs {
		spec, _ := matgen.ByName(name)
		fps[name] = spec.Generate().Fingerprint()
	}
	// Register in descending fingerprint order.
	slices.SortFunc(specs, func(a, b string) int { return strings.Compare(fps[b], fps[a]) })

	_, url1, stop1 := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c1 := client.New(url1)
	for _, name := range specs {
		if _, err := c1.RegisterMatgen(ctx, name, ""); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	before, err := c1.Matrices(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	byFP := func(a, b service.MatrixInfo) int { return strings.Compare(a.Fingerprint, b.Fingerprint) }
	if len(before) != len(specs) || !slices.IsSortedFunc(before, byFP) {
		t.Fatalf("listing is not in fingerprint order: %+v", before)
	}
	stop1()

	_, url2, _ := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	after, err := client.New(url2).Matrices(ctx)
	if err != nil {
		t.Fatalf("list after restart: %v", err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("listing after restart = %+v, before = %+v", after, before)
	}
}

func TestCorruptFactorFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := service.SolveRequest{Precond: "fsaie"}

	_, url1, stop1 := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c1 := client.New(url1)
	info, err := c1.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req.Matrix = info.Fingerprint
	if _, err := c1.Solve(ctx, req); err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	stop1()

	// Flip one bit in the persisted factor: the entry must be quarantined at
	// the next open, and the solve must fall back to a recompute — degraded
	// performance, never a wrong answer or a dead daemon.
	flipBitInDir(t, filepath.Join(dir, "factors"))

	reg := telemetry.NewRegistry()
	s2, url2, _ := newDurableServer(t, dir, service.Options{Metrics: reg})
	st := s2.Store().Stats()
	if st.Corrupt != 1 || st.Factors != 0 || st.Matrices != 1 {
		t.Fatalf("store after corruption: %+v", st)
	}
	if got := reg.Counter("store.corrupt_total").Value(); got != 1 {
		t.Fatalf("store_corrupt_total = %d, want 1", got)
	}
	resp, err := client.New(url2).Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve after corruption: %v", err)
	}
	if resp.Cache != service.CacheMiss || !resp.Converged {
		t.Fatalf("corrupt factor must force a converging recompute: cache=%s converged=%v",
			resp.Cache, resp.Converged)
	}
}

// TestRetiredFactorKindIsRebuilt: a data dir whose factor entry is of the
// retired kind that also held Gᵀ keeps its matrix and every alias across a
// restart, drops the factor without counting it corrupt, and the next
// solve is a miss that rebuilds the same G.
func TestRetiredFactorKindIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := service.SolveRequest{Precond: "fsaie", ReturnSolution: true}

	s1, url1, stop1 := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c1 := client.New(url1)
	var info service.MatrixInfo
	for _, name := range []string{"lap", "lap2"} {
		var err error
		if info, err = c1.RegisterMatgen(ctx, "lap64x64", name); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	req.Matrix = info.Fingerprint
	cold, err := c1.Solve(ctx, req)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	g1 := s1.CachedFactor(info.Fingerprint, req).G
	stop1()

	// Give the entry the retired kind byte under a matching checksum: an
	// intact entry as far as the envelope can tell.
	ents, err := os.ReadDir(filepath.Join(dir, "factors"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one factor entry, got %d (err=%v)", len(ents), err)
	}
	path := filepath.Join(dir, "factors", ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[6] = 'F'
	end := len(data) - sha256.Size
	sum := sha256.Sum256(data[:end])
	copy(data[end:], sum[:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2, url2, _ := newDurableServer(t, dir, service.Options{Metrics: reg})
	if st := s2.Store().Stats(); st.Matrices != 1 || st.Factors != 0 || st.Corrupt != 0 {
		t.Fatalf("store after reopen: %+v, want 1 matrix, no factor, nothing corrupt", st)
	}
	if got := reg.Counter("store.corrupt_total").Value(); got != 0 {
		t.Fatalf("store_corrupt_total = %d, want 0", got)
	}
	c2 := client.New(url2)
	for _, ref := range []string{"lap", "lap2"} {
		if got, err := c2.Matrix(ctx, ref); err != nil || got.Fingerprint != info.Fingerprint {
			t.Fatalf("alias %q after restart: %+v err=%v", ref, got, err)
		}
	}
	resp, err := c2.Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve after restart: %v", err)
	}
	if resp.Cache != service.CacheMiss || resp.SetupNS <= 0 {
		t.Fatalf("the dropped factor must be rebuilt: cache=%s setup=%d", resp.Cache, resp.SetupNS)
	}
	g2 := s2.CachedFactor(info.Fingerprint, req).G
	if !slices.Equal(g1.RowPtr, g2.RowPtr) || !slices.Equal(g1.ColIdx, g2.ColIdx) || !sameBits(g1.Val, g2.Val) {
		t.Fatal("the rebuilt G differs from the one computed before the restart")
	}
	if !sameBits(resp.X, cold.X) {
		t.Fatal("the solve after the rebuild is not bit-identical to the first cold solve")
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// flipBitInDir flips one bit in the middle of the first regular file found
// under dir.
func flipBitInDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no files to corrupt in %s: %v", dir, err)
	}
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func TestConcurrentDeleteRacingWarmSolve(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s, url, _ := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c := client.New(url)
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	if _, err := c.Solve(ctx, req); err != nil {
		t.Fatalf("warmup solve: %v", err)
	}

	// Warm solves race the unregister. Each must either finish cleanly or
	// fail with 404 (matrix gone before resolution) — and afterwards neither
	// the cache nor the disk may know the matrix.
	const solvers = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	solveErrs := make([]error, solvers)
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, solveErrs[i] = c.Solve(ctx, req)
		}(i)
	}
	var delErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		delErr = c.Unregister(ctx, info.Fingerprint)
	}()
	close(start)
	wg.Wait()

	if delErr != nil {
		t.Fatalf("unregister: %v", delErr)
	}
	for i, err := range solveErrs {
		if err == nil {
			continue
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("solver %d: %v (want success or 404)", i, err)
		}
	}
	if st := s.Store().Stats(); st.Matrices != 0 || st.Factors != 0 {
		t.Fatalf("store after racing delete: %+v", st)
	}
	for _, sub := range []string{"matrices", "factors"} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("readdir %s: %v", sub, err)
		}
		if len(ents) != 0 {
			t.Fatalf("%s not empty after delete: %d files", sub, len(ents))
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cache.Entries != 0 || stats.Matrices != 0 {
		t.Fatalf("memory state after racing delete: cache=%d matrices=%d",
			stats.Cache.Entries, stats.Matrices)
	}
}

func TestIdempotentRetryExecutesOnce(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 2, Metrics: reg})
	hs := httptest.NewServer(faultinject.HTTPFaults(s.Handler()))
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)
	// A fresh connection per attempt: net/http transparently replays
	// requests carrying an Idempotency-Key header on reused connections,
	// which would hide the retry loop this test exercises.
	tr := &http.Transport{DisableKeepAlives: true}
	t.Cleanup(tr.CloseIdleConnections)
	c.SetHTTPClient(&http.Client{Transport: tr})

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// Drop exactly the next response: the solve executes server-side but the
	// client sees a severed connection and retries with the same
	// idempotency key — the retry must replay, not re-solve.
	restore := faultinject.Activate(faultinject.New(1).WithHTTPDrop(1))
	defer restore()

	pol := client.DefaultRetryPolicy(3)
	pol.BaseDelay = 10 * time.Millisecond
	resp, st, err := c.SolveRetry(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}, pol)
	if err != nil {
		t.Fatalf("retried solve: %v", err)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", st.Attempts)
	}
	if !resp.Replayed || !st.Replayed {
		t.Fatalf("retry must be served from the original execution: resp.Replayed=%v st.Replayed=%v",
			resp.Replayed, st.Replayed)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Queue.Completed != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("solve must run exactly once server-side: completed=%d misses=%d",
			stats.Queue.Completed, stats.Cache.Misses)
	}
	if replays := reg.Counter("retry.replays_total").Value() + reg.Counter("retry.coalesced_total").Value(); replays != 1 {
		t.Fatalf("replays+coalesced = %d, want 1", replays)
	}
}

func TestIdempotentConcurrentRequestsCoalesce(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 2, Metrics: reg})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"})
	key := client.NewIdempotencyKey()

	const n = 3
	var wg sync.WaitGroup
	jobIDs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, bodyOut, err := rawSolve(hs.URL, body, map[string]string{service.HeaderIdempotencyKey: key})
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = errors.New(resp.Status + ": " + string(bodyOut))
				return
			}
			var sr service.SolveResponse
			if errs[i] = json.Unmarshal(bodyOut, &sr); errs[i] == nil {
				jobIDs[i] = sr.JobID
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if jobIDs[i] != jobIDs[0] {
			t.Fatalf("job ids diverge: %v", jobIDs)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Queue.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (duplicates must coalesce)", stats.Queue.Completed)
	}
}

// rawSolve posts a solve body with explicit headers, returning the response
// and its body. Used where the typed client would manage the headers itself.
func rawSolve(url string, body []byte, headers map[string]string) (*http.Response, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url+"/api/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func TestClientDeadlineCancelsQueuedJob(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 1, Metrics: reg, MaxInflight: 1, QueueCap: 4})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// Occupy the only slot with a cold solve whose setup straggles: the
	// injected worker delay holds the inflight slot for a deterministic
	// window regardless of how fast CG happens to converge.
	restore := faultinject.Activate(faultinject.New(1).WithWorkerDelay(1500*time.Millisecond, 1))
	t.Cleanup(restore)
	blockerDone := make(chan *service.SolveResponse, 1)
	go func() {
		resp, _ := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"})
		blockerDone <- resp
	}()
	waitForInflight(t, c, 1)

	// A queued job whose propagated client deadline expires must come back
	// 504 without ever running.
	start := time.Now()
	body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"})
	resp, out, err := rawSolve(hs.URL, body, map[string]string{service.HeaderDeadlineMS: "300"})
	if err != nil {
		t.Fatalf("queued solve: %v", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "deadline") {
		t.Fatalf("error body %q must name the deadline", out)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("expiry took %v, want ~300ms", waited)
	}
	if got := reg.Counter("retry.deadline_expired_total").Value(); got != 1 {
		t.Fatalf("retry_deadline_expired_total = %d, want 1", got)
	}
	if blocker := <-blockerDone; blocker == nil || !blocker.Converged {
		t.Fatalf("blocker should finish normally, got %+v", blocker)
	}
}

func TestClientDeadlineCancelsInFlightCG(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 1, Metrics: reg})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	// No queue contention: the deadline expires while the job is in flight
	// (a straggling setup worker guarantees the budget dies first) and must
	// cancel CG cooperatively — a 200 with status "cancelled", not a hung
	// request. The impossible tolerance keeps CG from converging before its
	// first cancellation poll.
	restore := faultinject.Activate(faultinject.New(1).WithWorkerDelay(800*time.Millisecond, 1))
	t.Cleanup(restore)
	body, _ := json.Marshal(service.SolveRequest{
		Matrix: info.Fingerprint, Precond: "fsaie",
		Tol: 1e-300, MaxIter: 1 << 30, TimeoutMS: 10000,
	})
	start := time.Now()
	resp, out, err := rawSolve(hs.URL, body, map[string]string{service.HeaderDeadlineMS: "300"})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 with a cancelled result", resp.StatusCode, out)
	}
	var sr service.SolveResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.Converged || sr.Status != "cancelled" {
		t.Fatalf("converged=%v status=%q, want a cancelled solve", sr.Converged, sr.Status)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("cancellation took %v, want ~300ms", took)
	}
	if got := reg.Counter("retry.deadline_expired_total").Value(); got != 1 {
		t.Fatalf("retry_deadline_expired_total = %d, want 1", got)
	}
}

func waitForInflight(t *testing.T, c *client.Client, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Stats(context.Background())
		if err == nil && st.Queue.Inflight >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("inflight never reached %d", want)
}

func TestMemoryDegradationShedsAndRecovers(t *testing.T) {
	ctx := context.Background()
	var heap atomic.Uint64
	heap.Store(100) // far below the watermark
	reg := telemetry.NewRegistry()
	// 1 ns objectives exhaust each solve series' budget from its first
	// event, so once memory recovers the SLO verdict must show on /healthz.
	s := service.New(service.Options{
		Workers: 2, Metrics: reg,
		MemSoftLimitBytes: 1000,
		MemProbe:          heap.Load,
		SLO:               obs.SLOObjectives{WarmSolveP95: 1, ColdSolveP95: 1, MinEvents: 1},
	})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	reqA := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsai"}
	reqB := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	for _, req := range []service.SolveRequest{reqA, reqB} {
		if _, err := c.Solve(ctx, req); err != nil {
			t.Fatalf("cold solve at normal: %v", err)
		}
	}

	// Pressure: the entry transition evicts the LRU half (A); B stays
	// resident, so a warm solve on B passes while a cold solve on A sheds.
	heap.Store(1100)
	warm, err := c.Solve(ctx, reqB)
	if err != nil {
		t.Fatalf("warm solve under pressure: %v", err)
	}
	if warm.Cache != service.CacheHit {
		t.Fatalf("warm solve under pressure: cache=%s, want hit", warm.Cache)
	}
	if st, _ := c.Stats(ctx); st.Degraded != "pressure" {
		t.Fatalf("degraded = %q, want pressure", st.Degraded)
	}
	_, err = c.Solve(ctx, reqA)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold solve under pressure: %v, want 429", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("shed response must carry Retry-After, got %v", apiErr.RetryAfter)
	}

	// Critical: even warm solves shed, and the cache is emptied.
	heap.Store(2000)
	_, err = c.Solve(ctx, reqB)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("warm solve at critical: %v, want 429", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Degraded != "critical" || st.Cache.Entries != 0 {
		t.Fatalf("at critical: degraded=%q cache=%d", st.Degraded, st.Cache.Entries)
	}
	if got := reg.Gauge("degraded.state").Value(); got != 2 {
		t.Fatalf("degraded_state = %v at critical, want 2", got)
	}

	// Recovery: below the hysteresis exit the daemon serves cold solves again.
	heap.Store(100)
	resp, err := c.Solve(ctx, reqA)
	if err != nil || resp.Cache != service.CacheMiss || !resp.Converged {
		t.Fatalf("solve after recovery: %+v err=%v", resp, err)
	}
	if st, _ := c.Stats(ctx); st.Degraded != "normal" || reg.Gauge("degraded.state").Value() != 0 {
		t.Fatalf("degraded = %q (degraded_state %v) after recovery, want normal",
			st.Degraded, reg.Gauge("degraded.state").Value())
	}
	if shed := reg.Counter("degraded.shed_total").Value(); shed != 2 {
		t.Fatalf("degraded_shed_total = %d, want 2", shed)
	}
	if ev := reg.Counter("degraded.evictions_total").Value(); ev < 2 {
		t.Fatalf("degraded_evictions_total = %d, want >= 2", ev)
	}
	// Recovery clears the memory verdict instead of pinning ok, so the
	// exhausted SLO budget degrades /healthz again.
	var h obs.Health
	if getJSON(t, hs.URL+"/healthz", &h); h.Status != obs.HealthDegraded || !strings.HasPrefix(h.Reason, "SLO error budget exhausted") {
		t.Fatalf("/healthz after recovery = %+v, want degraded by the exhausted SLO budget", h)
	}
}

func TestStatsIncludesStoreSection(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, url, _ := newDurableServer(t, dir, service.Options{Metrics: telemetry.NewRegistry()})
	c := client.New(url)
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Store == nil {
		t.Fatal("stats missing store section with -data-dir active")
	}
	if st.Store.Matrices != 1 || st.Store.Factors != 1 || st.Store.Bytes <= 0 {
		t.Fatalf("store stats: %+v", st.Store)
	}
}

func TestMalformedDeadlineHeaderIsRejected(t *testing.T) {
	s := service.New(service.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)
	info, err := c.RegisterMatgen(context.Background(), "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint})
	// 9300000000000 ms overflows time.Duration into a negative timeout.
	for _, bad := range []string{"soon", "-5", "0", "9300000000000"} {
		resp, out, err := rawSolve(hs.URL, body, map[string]string{service.HeaderDeadlineMS: bad})
		if err != nil {
			t.Fatalf("solve with deadline %q: %v", bad, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status %d (%s), want 400", bad, resp.StatusCode, out)
		}
	}
}

// TestBatchedSolvesBitIdenticalToUnbatched is the batcher's core contract:
// concurrent warm solves grouped into one block solve return exactly the
// bits the same jobs produce unbatched — per-column solutions, iteration
// counts, statuses and residuals all match a batching-disabled server.
func TestBatchedSolvesBitIdenticalToUnbatched(t *testing.T) {
	ctx := context.Background()
	regB := telemetry.NewRegistry()
	sb := service.New(service.Options{Workers: 2, Metrics: regB, BatchWindow: 500 * time.Millisecond})
	hb := httptest.NewServer(sb.Handler())
	t.Cleanup(func() { hb.Close(); _ = sb.Close() })
	su := service.New(service.Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	hu := httptest.NewServer(su.Handler())
	t.Cleanup(func() { hu.Close(); _ = su.Close() })
	cb, cu := client.New(hb.URL), client.New(hu.URL)

	infoB, err := cb.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register batched: %v", err)
	}
	if _, err := cu.RegisterMatgen(ctx, "lap64x64", ""); err != nil {
		t.Fatalf("register unbatched: %v", err)
	}
	// Prime both caches: batching is warm-only, and the comparison server
	// must hit the same cached factor.
	prime := service.SolveRequest{Matrix: infoB.Fingerprint, Precond: "fsaie"}
	for _, c := range []*client.Client{cb, cu} {
		if resp, err := c.Solve(ctx, prime); err != nil || resp.Cache != service.CacheMiss {
			t.Fatalf("priming solve: %+v err=%v", resp, err)
		}
	}

	const k = 4
	rhs := make([][]float64, k)
	for i := range rhs {
		rhs[i] = make([]float64, infoB.Rows)
		for j := range rhs[i] {
			rhs[i][j] = float64((j%13)-6) * float64(i+1) / 3
		}
	}
	unbatched := make([]*service.SolveResponse, k)
	for i := range rhs {
		r, err := cu.Solve(ctx, service.SolveRequest{
			Matrix: infoB.Fingerprint, Precond: "fsaie", RHS: rhs[i], ReturnSolution: true})
		if err != nil {
			t.Fatalf("unbatched solve %d: %v", i, err)
		}
		if r.Cache != service.CacheHit || r.Batch != nil {
			t.Fatalf("unbatched solve %d: cache=%s batch=%+v", i, r.Cache, r.Batch)
		}
		unbatched[i] = r
	}

	batched := make([]*service.SolveResponse, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range rhs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batched[i], errs[i] = cb.Solve(ctx, service.SolveRequest{
				Matrix: infoB.Fingerprint, Precond: "fsaie", RHS: rhs[i], ReturnSolution: true})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batched solve %d: %v", i, err)
		}
	}
	for i, r := range batched {
		if r.Batch == nil {
			t.Fatalf("batched solve %d carries no batch section: %+v", i, r)
		}
		if r.Batch.Size != k || r.Batch.ID != batched[0].Batch.ID {
			t.Fatalf("solve %d: batch %+v, want size %d in batch %s", i, r.Batch, k, batched[0].Batch.ID)
		}
		if r.Cache != service.CacheHit || r.SetupNS != 0 {
			t.Fatalf("batched solve %d must be warm: cache=%s setup=%d", i, r.Cache, r.SetupNS)
		}
		u := unbatched[i]
		if r.Iterations != u.Iterations || r.Status != u.Status || r.RelRes != u.RelRes {
			t.Fatalf("solve %d: batched {it=%d st=%s rel=%v} unbatched {it=%d st=%s rel=%v}",
				i, r.Iterations, r.Status, r.RelRes, u.Iterations, u.Status, u.RelRes)
		}
		if len(r.X) != len(u.X) {
			t.Fatalf("solve %d: solution lengths differ", i)
		}
		for j := range r.X {
			if r.X[j] != u.X[j] {
				t.Fatalf("solve %d x[%d]: batched %v, unbatched %v — not bit-identical",
					i, j, r.X[j], u.X[j])
			}
		}
	}
	if got := regB.Histogram("batch.size", nil).Sum(); got != k {
		t.Fatalf("batch_size_sum = %v, want %d", got, k)
	}
	if got := regB.Histogram("batch.size", nil).Count(); got != 1 {
		t.Fatalf("batch_size_count = %d, want 1", got)
	}
}

// TestBatchDeadlineExpiryMidBatch is the deflation drill: one member of a
// batch has a client deadline that expires mid-batch — during the window
// wait, before the block solve's first cancellation poll. Its column must
// deflate out (200 with status "cancelled", zero iterations, deadline
// counter bumped) while the other members converge normally — an expired
// deadline never poisons the batch.
func TestBatchDeadlineExpiryMidBatch(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 2, Metrics: reg, BatchWindow: 400 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}); err != nil {
		t.Fatalf("priming solve: %v", err)
	}

	body, _ := json.Marshal(service.SolveRequest{
		Matrix: info.Fingerprint, Precond: "fsaie", TimeoutMS: 10000,
	})
	responses := make([]service.SolveResponse, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	run := func(i int, headers map[string]string) {
		defer wg.Done()
		resp, out, err := rawSolve(hs.URL, body, headers)
		if err != nil {
			errs[i] = err
			return
		}
		if resp.StatusCode != http.StatusOK {
			errs[i] = errors.New(resp.Status + ": " + string(out))
			return
		}
		errs[i] = json.Unmarshal(out, &responses[i])
	}
	wg.Add(3)
	go run(0, nil)
	go run(1, nil)
	// The doomed member's 150ms budget dies inside the 400ms batch window,
	// so its column enters the block solve already expired.
	go run(2, map[string]string{service.HeaderDeadlineMS: "150"})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}

	for i, r := range responses {
		if r.Batch == nil || r.Batch.ID != responses[0].Batch.ID || r.Batch.Size != 3 {
			t.Fatalf("member %d: batch %+v, want all three in one batch", i, r.Batch)
		}
	}
	doomed := responses[2]
	if doomed.Converged || doomed.Status != "cancelled" {
		t.Fatalf("doomed member: converged=%v status=%q, want a cancelled column", doomed.Converged, doomed.Status)
	}
	for i, healthy := range responses[:2] {
		if !healthy.Converged || healthy.Status != "converged" {
			t.Fatalf("member %d: converged=%v status=%q — the expired column must not poison the batch",
				i, healthy.Converged, healthy.Status)
		}
		if healthy.Iterations <= doomed.Iterations {
			t.Fatalf("member %d iterated %d times, doomed member %d — the expired column must deflate out while others keep running",
				i, healthy.Iterations, doomed.Iterations)
		}
	}
	if got := reg.Counter("retry.deadline_expired_total").Value(); got != 1 {
		t.Fatalf("retry_deadline_expired_total = %d, want 1", got)
	}
}

// TestBatchedRebuildRacingDeleteLeavesNoFactor: a factor evicted by a
// DELETE while a batch window is open gets rebuilt when the batch launches.
// The rebuild must run the same delete-race sweep as any other build, so
// afterwards neither the cache nor the store holds a factor for the
// unregistered matrix.
func TestBatchedRebuildRacingDeleteLeavesNoFactor(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, url, _ := newDurableServer(t, dir, service.Options{
		Metrics: telemetry.NewRegistry(), BatchWindow: time.Second})
	c := client.New(url)
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	if resp, err := c.Solve(ctx, req); err != nil || resp.Cache != service.CacheMiss {
		t.Fatalf("priming solve: %+v err=%v", resp, err)
	}

	// Two warm solves enter the batch window…
	const members = 2
	var wg sync.WaitGroup
	resps := make([]*service.SolveResponse, members)
	errs := make([]error, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Solve(ctx, req)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		jobs, err := c.Jobs(ctx)
		if err != nil {
			t.Fatalf("jobs: %v", err)
		}
		queued := 0
		for _, ji := range jobs {
			if ji.State == service.JobQueued {
				queued++
			}
		}
		if queued == members {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch members never queued: %+v", jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// …and the matrix is unregistered while it is open, evicting the factor.
	if err := c.Unregister(ctx, info.Fingerprint); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if resps[i].Batch == nil || resps[i].Cache != service.CacheMiss {
			t.Fatalf("member %d: want a batched rebuild, got cache=%s batch=%+v", i, resps[i].Cache, resps[i].Batch)
		}
	}

	if st := s.Store().Stats(); st.Factors != 0 || st.Matrices != 0 {
		t.Fatalf("store after batched rebuild racing delete: %+v", st)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "factors"))
	if err != nil || len(ents) != 0 {
		t.Fatalf("factors dir after delete: %d files, err=%v", len(ents), err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cache.Entries != 0 {
		t.Fatalf("cache holds %d factors for an unregistered matrix", stats.Cache.Entries)
	}
}
