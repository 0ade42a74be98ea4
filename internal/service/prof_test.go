package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/prof"
	"repro/internal/prof/proftest"
	"repro/internal/roofline"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// TestConcurrentSolvesAttributedInProfileWindow is the per-job-attribution
// acceptance check: with two clients solving concurrently, a single captured
// CPU window must contain samples labeled with a job id from EACH client and
// with the cg solver phase — proving the labels survive the whole
// handler → admission → setup/solve → kernel-pool path under load.
func TestConcurrentSolvesAttributedInProfileWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("captures CPU profile windows under load")
	}
	s, c := newTestServer(t, service.Options{Metrics: telemetry.NewRegistry()})
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap72x72", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// Two workloads with distinct cache keys (different filters), so both
	// keep the solver busy instead of coalescing on one cache build. An
	// unpreconditioned tight-tolerance solve spends nearly all its time in
	// the CG loop, which is the phase the test wants to see labeled.
	reqs := []service.SolveRequest{
		{Matrix: info.Fingerprint, Precond: "none", Tol: 1e-10},
		{Matrix: info.Fingerprint, Precond: "jacobi", Tol: 1e-10},
	}

	var (
		mu   sync.Mutex
		jobs [2]map[string]bool
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		jobs[w] = map[string]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Solve(ctx, reqs[w])
				if err != nil {
					t.Errorf("worker %d solve: %v", w, err)
					return
				}
				mu.Lock()
				jobs[w][resp.JobID] = true
				mu.Unlock()
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	// CPU sampling is statistical (100 Hz): retry short windows until one
	// catches both workers, bounded so a pass stays fast and a real
	// label-propagation break still fails loudly. The labels are read back
	// with `go tool pprof -tags`, the operator's own view of a window.
	seen := func(ids []string, set map[string]bool) bool {
		for _, id := range ids {
			if set[id] {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(30 * time.Second)
	var last map[string][]string
	for time.Now().Before(deadline) {
		w := s.Prof().Capture(1200 * time.Millisecond)
		if len(w.CPU) == 0 {
			continue
		}
		last = proftest.Tags(t, w.CPU)
		mu.Lock()
		both := seen(last[prof.LabelJobID], jobs[0]) && seen(last[prof.LabelJobID], jobs[1])
		mu.Unlock()
		if both && slices.Contains(last[prof.LabelPhase], prof.PhaseCG) {
			return
		}
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("no window captured both workers' job ids with phase=cg; last window jobs=%v phases=%v (worker0=%v worker1=%v)",
		last[prof.LabelJobID], last[prof.LabelPhase], keys(jobs[0]), keys(jobs[1]))
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestProfilesAndRooflineEndpoints exercises the daemon-mounted observability
// routes end to end: a solve must surface in /roofline, /metrics must carry
// the roofline_* gauges, and /profiles must serve a valid index whose
// captured window is downloadable. None of the routes may answer 5xx.
func TestProfilesAndRooflineEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s := service.New(service.Options{Metrics: reg, Workers: 2, RunsDir: dir})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !resp.Converged {
		t.Fatalf("solve did not converge: %+v", resp)
	}

	// /roofline reflects the solve with kernels priced against the machine.
	var roofRep struct {
		Machine struct {
			Name string `json:"name"`
		} `json:"machine"`
		Matrices []struct {
			Fingerprint string `json:"fingerprint"`
			Latest      struct {
				JobID   string `json:"job_id"`
				Kernels []struct {
					Kernel                 string  `json:"kernel"`
					AchievedBandwidthBytes float64 `json:"achieved_bandwidth_bytes"`
					AchievedFlops          float64 `json:"achieved_flops"`
				} `json:"kernels"`
			} `json:"latest"`
		} `json:"matrices"`
	}
	getJSON(t, hs.URL+"/roofline", &roofRep)
	if roofRep.Machine.Name != "Skylake" {
		t.Fatalf("default machine = %q, want Skylake", roofRep.Machine.Name)
	}
	if len(roofRep.Matrices) != 1 || roofRep.Matrices[0].Fingerprint != info.Fingerprint {
		t.Fatalf("roofline matrices: %+v", roofRep.Matrices)
	}
	latest := roofRep.Matrices[0].Latest
	if latest.JobID != resp.JobID {
		t.Fatalf("latest roofline job = %q, want %q", latest.JobID, resp.JobID)
	}
	if len(latest.Kernels) == 0 {
		t.Fatal("no kernels in roofline placement")
	}
	for _, k := range latest.Kernels {
		if k.AchievedBandwidthBytes <= 0 || k.AchievedFlops <= 0 {
			t.Fatalf("kernel %q has non-positive rates: %+v", k.Kernel, k)
		}
	}

	// /metrics carries the roofline_* series for the same fingerprint, and
	// the gauge values agree with the /roofline (and report) numbers.
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil || mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v status=%v", err, mr.StatusCode)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, family := range []string{"roofline_achieved_bandwidth_bytes", "roofline_achieved_flops"} {
		if !strings.Contains(string(body), family) {
			t.Fatalf("/metrics missing %s series", family)
		}
	}

	// Schema-v6 run report: its roofline section must agree exactly with
	// the Prometheus gauge for the same job (%g round-trips float64).
	var rep experiments.RunReport
	data, err := os.ReadFile(filepath.Join(dir, resp.Report))
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Schema != experiments.RunReportSchemaVersion {
		t.Fatalf("report schema = %d, want %d", rep.Schema, experiments.RunReportSchemaVersion)
	}
	rl := rep.Entries[0].Roofline
	if rl == nil {
		t.Fatal("report has no roofline section")
	}
	var reportBW float64
	for _, k := range rl.Kernels {
		if k.Kernel == roofline.KernelSpMV {
			reportBW = k.AchievedBandwidthBytes
		}
	}
	if reportBW <= 0 {
		t.Fatalf("report spmv bandwidth = %g", reportBW)
	}
	gaugeBW, ok := metricValue(string(body),
		`roofline_achieved_bandwidth_bytes{kernel="spmv",fp="`+info.Fingerprint[:12]+`"}`)
	if !ok {
		t.Fatal("/metrics has no spmv bandwidth gauge for the matrix")
	}
	if gaugeBW != reportBW {
		t.Fatalf("gauge %g != report %g for the same job", gaugeBW, reportBW)
	}

	// /profiles serves a valid index even before any window is captured…
	var idx struct {
		Enabled bool `json:"enabled"`
		Windows []struct {
			ID uint64 `json:"id"`
		} `json:"windows"`
	}
	getJSON(t, hs.URL+"/profiles", &idx)
	if len(idx.Windows) != 0 {
		t.Fatalf("expected empty window list, got %d", len(idx.Windows))
	}

	// …and lists a captured window with a downloadable CPU profile.
	s.Prof().Capture(50 * time.Millisecond)
	getJSON(t, hs.URL+"/profiles", &idx)
	if len(idx.Windows) != 1 {
		t.Fatalf("expected 1 window, got %d", len(idx.Windows))
	}
	pr, err := http.Get(hs.URL + "/profiles/1/cpu")
	if err != nil || pr.StatusCode != http.StatusOK {
		t.Fatalf("/profiles/1/cpu: %v status=%v", err, pr.StatusCode)
	}
	raw, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	proftest.Raw(t, raw)

	// No observability route may answer 5xx — same invariant the smoke
	// script asserts against a running daemon.
	for _, path := range []string{"/", "/metrics", "/healthz", "/profiles", "/roofline", "/traces", "/slo"} {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode >= 500 {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// metricValue finds the sample line starting with prefix in a Prometheus
// text exposition and parses its value.
func metricValue(body, prefix string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}

// TestRecoveredSolveStaysOffRoofline: a recovered resilient solve's
// iterations ran on several preconditioners, so its kernel times price no
// one of them. Its report has no roofline section and the matrix's rolling
// baseline does not see it; a resilient solve that needed no recovery is
// placed like any solve.
func TestRecoveredSolveStaysOffRoofline(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, service.Options{RunsDir: dir})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	observations := func() int64 {
		for _, m := range s.Roofline().Report().Matrices {
			if m.Fingerprint == info.Fingerprint {
				return m.Observations
			}
		}
		return 0
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie", Resilient: true}
	for _, fault := range []bool{false, true} {
		before := observations()
		restore := func() {}
		if fault {
			restore = faultinject.Activate(faultinject.New(21).WithSpMVNaN(4))
		}
		resp, err := c.Solve(ctx, req)
		restore()
		if err != nil || !resp.Converged {
			t.Fatalf("resilient solve (fault %v): %+v, err %v", fault, resp, err)
		}
		rep, err := experiments.ReadRunReportFile(filepath.Join(dir, resp.Report))
		if err != nil {
			t.Fatal(err)
		}
		e := rep.Entries[0]
		if recovered := e.Resilience != nil && e.Resilience.Recovered; recovered != fault {
			t.Fatalf("fault %v: report says recovered=%v", fault, recovered)
		}
		wantMoved := int64(1)
		if fault {
			wantMoved = 0
		}
		placed, moved := e.Roofline != nil, observations()-before
		if placed == fault || moved != wantMoved {
			t.Errorf("fault %v: roofline section %v, /roofline observations +%d", fault, placed, moved)
		}
	}
}
