package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("fsai.setups").Add(3)
	reg.Gauge("solver.relres").Set(1e-9)
	reg.Histogram("krylov.iter.spmv_ns", telemetry.ExpBuckets(100, 10, 4)).Observe(250)

	srv := httptest.NewServer(NewServer(Options{Registry: reg}).Handler())
	defer srv.Close()

	code, hdr, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE fsai_setups counter",
		"# HELP fsai_setups",
		"fsai_setups 3",
		"# TYPE solver_relres gauge",
		"# TYPE krylov_iter_spmv_ns histogram",
		`krylov_iter_spmv_ns_bucket{le="+Inf"} 1`,
		"krylov_iter_spmv_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

func TestServerMetricsNilRegistry(t *testing.T) {
	srv := httptest.NewServer(NewServer(Options{}).Handler())
	defer srv.Close()
	code, _, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Errorf("nil registry: status %d body %q", code, body)
	}
}

func TestServerSolveSnapshot(t *testing.T) {
	w := NewSolveWatcher()
	w.Begin("lap/FSAI", 1e-8, 100)
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 7, RelRes: 1e-3})
	srv := httptest.NewServer(NewServer(Options{Watcher: w}).Handler())
	defer srv.Close()

	code, hdr, body := get(t, srv.URL+"/debug/solve")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var st SolveState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if !st.Active || st.Iteration != 7 || st.RelRes != 1e-3 || st.Label != "lap/FSAI" {
		t.Errorf("snapshot: %+v", st)
	}
}

func TestServerSolveSnapshotNilWatcher(t *testing.T) {
	srv := httptest.NewServer(NewServer(Options{}).Handler())
	defer srv.Close()
	code, _, body := get(t, srv.URL+"/debug/solve")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var st SolveState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Active || st.Done {
		t.Errorf("nil watcher should report idle state: %+v", st)
	}
}

// TestServerSSEPerIteration is the acceptance check: the SSE stream on
// /debug/solve must deliver at least one event per CG iteration of a live
// solve, plus the terminal done event, and then end.
func TestServerSSEPerIteration(t *testing.T) {
	// Small matrix: the iteration count stays within the 64-update
	// subscriber buffer, so no event can be dropped.
	m := matgen.Laplace2D(6, 6)
	b := make([]float64, m.Rows)
	for i := range b {
		b[i] = 1
	}

	w := NewSolveWatcher()
	srv := httptest.NewServer(NewServer(Options{Watcher: w}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/solve?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type sseResult struct {
		states []SolveState
		err    error
	}
	done := make(chan sseResult, 1)
	go func() {
		var res sseResult
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var st SolveState
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				res.err = err
				break
			}
			res.states = append(res.states, st)
		}
		done <- res
	}()

	// Wait until the SSE handler has registered its subscription, so the
	// solve cannot start publishing before the client is listening.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		n := len(w.subs)
		w.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	w.Begin("lap2d-6x6/jacobi", 1e-8, 200)
	x := make([]float64, m.Rows)
	opt := krylov.DefaultOptions()
	opt.Tol = 1e-8
	opt.MaxIter = 200
	opt.ProgressDetail = w.ProgressDetail
	res := krylov.Solve(m, x, b, krylov.NewJacobi(m), opt)
	w.End(res)

	var got sseResult
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate after the solve finished")
	}
	if got.err != nil {
		t.Fatalf("stream decode: %v", got.err)
	}
	if !res.Converged || res.Iterations == 0 {
		t.Fatalf("test solve did not converge: %+v", res)
	}
	iterSeen := map[int]bool{}
	var doneEvents int
	for _, st := range got.states {
		if st.Active {
			iterSeen[st.Iteration] = true
		}
		if st.Done {
			doneEvents++
		}
	}
	for it := 1; it <= res.Iterations; it++ {
		if !iterSeen[it] {
			t.Errorf("no SSE event for iteration %d (of %d)", it, res.Iterations)
		}
	}
	if len(got.states) < res.Iterations+1 {
		t.Errorf("got %d SSE events for a %d-iteration solve", len(got.states), res.Iterations)
	}
	if doneEvents == 0 {
		t.Error("no terminal done event on the stream")
	}
}

func TestServerPprofWired(t *testing.T) {
	srv := httptest.NewServer(NewServer(Options{}).Handler())
	defer srv.Close()
	code, _, body := get(t, srv.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline: status %d body %q", code, body)
	}
	code, _, body = get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d", code)
	}
}

func TestServerRuns(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run1.json"), []byte(`{"schema":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(Options{RunsDir: dir}).Handler())
	defer srv.Close()

	code, _, body := get(t, srv.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var runs []runInfo
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if len(runs) != 1 || runs[0].Name != "run1.json" {
		t.Errorf("listing: %+v", runs)
	}

	code, _, body = get(t, srv.URL+"/runs/run1.json")
	if code != http.StatusOK || body != `{"schema":2}` {
		t.Errorf("fetch: status %d body %q", code, body)
	}

	for _, bad := range []string{"/runs/../server.go", "/runs/notes.txt", "/runs/none.json"} {
		if code, _, _ := get(t, srv.URL+bad); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", bad, code)
		}
	}
}

func TestServerRunsNoDir(t *testing.T) {
	srv := httptest.NewServer(NewServer(Options{}).Handler())
	defer srv.Close()
	code, _, body := get(t, srv.URL+"/runs")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("no runs dir: status %d body %q", code, body)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(Options{Registry: telemetry.NewRegistry()})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := get(t, "http://"+addr.String()+"/metrics")
	if code != http.StatusOK {
		t.Errorf("status %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestServerConcurrentScrapeDuringSolve exercises the satellite-3 scenario
// under the race detector: a solve publishes per-iteration progress and
// telemetry while two HTTP clients concurrently scrape /metrics and
// /debug/solve.
func TestServerConcurrentScrapeDuringSolve(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := NewSolveWatcher()
	srv := httptest.NewServer(NewServer(Options{Registry: reg, Watcher: w}).Handler())
	defer srv.Close()

	m := matgen.Laplace2D(16, 16)
	b := make([]float64, m.Rows)
	for i := range b {
		b[i] = 1
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/debug/solve")

	for round := 0; round < 3; round++ {
		w.Begin("race", 1e-8, 1000)
		x := make([]float64, m.Rows)
		opt := krylov.DefaultOptions()
		opt.MaxIter = 1000
		opt.CollectTiming = true
		opt.Metrics = reg
		opt.ProgressDetail = w.ProgressDetail
		res := krylov.Solve(m, x, b, krylov.NewJacobi(m), opt)
		w.End(res)
		if !res.Converged {
			t.Fatalf("round %d: solve did not converge: %+v", round, res)
		}
	}
	close(stop)
	wg.Wait()

	if st := w.State(); !st.Done {
		t.Errorf("final state not done: %+v", st)
	}
}

// TestServerShutdownDrainsSSE is the graceful-shutdown contract: Shutdown
// must end an attached /debug/solve SSE stream (which would otherwise live
// until its client disconnected) and return once the handlers drained.
func TestServerShutdownDrainsSSE(t *testing.T) {
	w := NewSolveWatcher()
	s := NewServer(Options{Watcher: w, Heartbeat: 10 * time.Millisecond})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr.String() + "/debug/solve?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait for the first heartbeat so the handler is provably inside its
	// stream loop before shutdown begins.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first heartbeat: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown did not return; SSE stream stalled the drain")
	}

	// The stream must have been ended by the server.
	if _, err := io.Copy(io.Discard, br); err != nil && !strings.Contains(err.Error(), "EOF") {
		// Any termination (clean EOF or reset) is fine; a hang is not, and
		// io.Copy returning at all proves the stream ended.
		t.Logf("stream ended with: %v", err)
	}

	// Shutdown is idempotent and safe on the already-stopped server.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServerTracesStream reads /traces?stream=1 over HTTP: the response
// headers come as soon as the handler has subscribed, the first heartbeat
// no sooner than the Heartbeat interval, a trace recorded after
// subscribing arrives as one "event: trace" carrying its JSON, and
// Shutdown ends the stream.
func TestServerTracesStream(t *testing.T) {
	const heartbeat = 300 * time.Millisecond
	rec := trace.NewRecorder(8, "", telemetry.NewRegistry())
	s := NewServer(Options{Traces: rec, Heartbeat: heartbeat})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	t0 := time.Now()
	resp, err := http.Get("http://" + addr.String() + "/traces?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if d := time.Since(t0); d >= heartbeat {
		t.Fatalf("response headers after %v, not before the first %v heartbeat", d, heartbeat)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != ": heartbeat\n" {
		t.Fatalf("first line %q (%v), want a heartbeat", line, err)
	}
	if d := time.Since(t0); d < heartbeat {
		t.Fatalf("first heartbeat after %v, before the %v interval", d, heartbeat)
	}

	tr := &trace.Trace{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), JobID: "j-000001",
		Root: telemetry.SpanSnapshot{Name: "solve-request", NS: 1000}}
	rec.Record(tr)
	want, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for {
		line, err = br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before the trace event: %v", err)
		}
		if line == "event: trace\n" {
			break
		}
		if line != ": heartbeat\n" && line != "\n" {
			t.Fatalf("unexpected line %q before the trace event", line)
		}
	}
	if line, _ = br.ReadString('\n'); line != "data: "+string(want)+"\n" {
		t.Fatalf("trace event data %q, want %q", line, want)
	}
	if line, _ = br.ReadString('\n'); line != "\n" {
		t.Fatalf("trace event not terminated by a blank line: %q", line)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rest, _ := io.ReadAll(br)
	if strings.Contains(string(rest), "event: trace") {
		t.Fatalf("a second trace event after the one recorded: %q", rest)
	}
}

// TestServerShutdownNeverStarted covers the embedded-Handler case: Shutdown
// on a server that only ever served through Handler() must not panic and
// must still fire the stream-ending signal.
func TestServerShutdownNeverStarted(t *testing.T) {
	s := NewServer(Options{Watcher: NewSolveWatcher(), Heartbeat: 10 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/debug/solve?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first heartbeat: %v", err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	streamDone := make(chan struct{})
	go func() { io.Copy(io.Discard, br); close(streamDone) }()
	select {
	case <-streamDone:
	case <-time.After(4 * time.Second):
		t.Fatal("quit signal did not end the embedded SSE stream")
	}
}
