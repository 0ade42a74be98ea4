package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// TestSolveKnobBounds: line_bytes must be a power of two from 8 to 1024
// and pattern_power 1–3. Out-of-range values are 400s; before the bounds,
// line_bytes 4 failed setup with a 500 and pattern_power 40 ran a setup
// that outlived its job deadline.
func TestSolveKnobBounds(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	if _, err := client.New(hs.URL).RegisterMatrixMarket(context.Background(), strings.NewReader(tinyMTX), "tiny"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lineBytes, power int
		timeoutMS        int64
		want             int
	}{
		{4, 0, 0, http.StatusBadRequest},
		{12, 0, 0, http.StatusBadRequest},
		{2048, 0, 0, http.StatusBadRequest},
		{0, 4, 0, http.StatusBadRequest},
		{0, 40, 0, http.StatusBadRequest},
		{8, 0, 0, http.StatusOK},
		{1024, 0, 0, http.StatusOK},
		{0, 3, 0, http.StatusOK},
		// MaxInt64/1e6 ms is the longest time.Duration; one more would
		// overflow into a negative, already expired deadline.
		{0, 0, 9223372036854, http.StatusOK},
		{0, 0, 9223372036855, http.StatusBadRequest},
		{0, 0, 1 << 62, http.StatusBadRequest},
		{0, 0, -5, http.StatusOK},
	} {
		body, _ := json.Marshal(service.SolveRequest{Matrix: "tiny", LineBytes: tc.lineBytes, PatternPower: tc.power, TimeoutMS: tc.timeoutMS})
		resp, out, err := rawSolve(hs.URL, body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("line_bytes %d, pattern_power %d, timeout_ms %d: HTTP %d (%s), want %d",
				tc.lineBytes, tc.power, tc.timeoutMS, resp.StatusCode, bytes.TrimSpace(out), tc.want)
		}
		if resp.StatusCode == http.StatusOK && !strings.Contains(string(out), `"status":"converged"`) {
			t.Errorf("line_bytes %d, pattern_power %d, timeout_ms %d: %s, want a converged solve",
				tc.lineBytes, tc.power, tc.timeoutMS, bytes.TrimSpace(out))
		}
	}
}

// TestSolveTrailingDataRejected: a body holding anything but whitespace
// after the request object is a 400; trailing whitespace is fine.
func TestSolveTrailingDataRejected(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	if _, err := client.New(hs.URL).RegisterMatrixMarket(context.Background(), strings.NewReader(tinyMTX), "tiny"); err != nil {
		t.Fatal(err)
	}
	for body, want := range map[string]int{
		`{"matrix":"tiny"} {"matrix":"tiny"}`: http.StatusBadRequest,
		`{"matrix":"tiny"} x`:                 http.StatusBadRequest,
		"{\"matrix\":\"tiny\"}\n\t \n":        http.StatusOK,
	} {
		resp, out, err := rawSolve(hs.URL, []byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Errorf("body %q: HTTP %d (%s), want %d", body, resp.StatusCode, bytes.TrimSpace(out), want)
		}
	}
}

// TestRegisterTrailingDataRejected: a JSON registration decodes like a
// solve request, so anything but whitespace after the object is a 400.
func TestRegisterTrailingDataRejected(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"matgen":"lap64x64"} xyz`, http.StatusBadRequest},
		{`{"matgen":"lap64x64"} {"matgen":"lap64x64"}`, http.StatusBadRequest},
		{"{\"matgen\":\"lap64x64\"}\n\t \n", http.StatusCreated},
		{`{"matgen":"lap64x64"}`, http.StatusOK},
	} {
		resp, err := http.Post(hs.URL+"/api/v1/matrices", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: HTTP %d (%s), want %d", tc.body, resp.StatusCode, bytes.TrimSpace(out), tc.want)
		}
	}
}

// TestRegisterRejectsNonFiniteValues: a MatrixMarket upload holding NaN or
// ±Inf is a 400 at registration, not a matrix whose first FSAI solve fails
// setup and whose Jacobi solve ends at iteration 0 with nan-or-inf.
func TestRegisterRejectsNonFiniteValues(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	for _, v := range []string{"NaN", "+Inf"} {
		mtx := strings.Replace(tinyMTX, "2 2 4.0", "2 2 "+v, 1)
		resp, err := http.Post(hs.URL+"/api/v1/matrices", "text/plain", strings.NewReader(mtx))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("upload with %s: HTTP %d (%s), want 400", v, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
}

// TestSolveResponseCompact: a warm solve's 200 body is one line of JSON
// plus a newline, and its x carries the exact bits of an in-process solve
// with the same cached factor.
func TestSolveResponseCompact(t *testing.T) {
	const workers = 2
	s := service.New(service.Options{Workers: workers})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	info, err := client.New(hs.URL).RegisterMatgen(context.Background(), "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, ReturnSolution: true}
	body, _ := json.Marshal(req)
	var warm service.SolveResponse
	var raw []byte
	for _, cache := range []string{service.CacheMiss, service.CacheHit} {
		resp, out, err := rawSolve(hs.URL, body, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %v %s", err, out)
		}
		if err := json.Unmarshal(out, &warm); err != nil || warm.Cache != cache {
			t.Fatalf("solve cache=%q (err %v), want %q", warm.Cache, err, cache)
		}
		raw = out
	}
	if i := bytes.IndexByte(raw, '\n'); i != len(raw)-1 {
		t.Fatalf("warm response is not one line plus a newline: first newline at %d of %d bytes", i, len(raw))
	}

	p := s.CachedFactor(info.Fingerprint, req)
	if p == nil {
		t.Fatal("no cached factor after the warm solve")
	}
	spec, _ := matgen.ByName("lap64x64")
	a := spec.Generate()
	b, x := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	res := krylov.Solve(a, x, b, p, krylov.Options{Tol: 1e-8, MaxIter: 10000, Workers: workers})
	if res.Iterations != warm.Iterations || len(warm.X) != len(x) {
		t.Fatalf("in-process solve: %d iterations, %d values; daemon: %d, %d",
			res.Iterations, len(x), warm.Iterations, len(warm.X))
	}
	for i := range x {
		if math.Float64bits(warm.X[i]) != math.Float64bits(x[i]) {
			t.Fatalf("x[%d]: daemon %v, in-process %v", i, warm.X[i], x[i])
		}
	}
}

// TestSolveStageAccount: every stage histogram is read from the job's span
// tree. On an unbatched and on a batching daemon, a cold solve and three
// concurrent warm ones (queued behind each other, or one block solve) each
// add one observation to service.job.{decode,queue_wait,total,encode}_ns,
// and each histogram's sum equals the sum of the matching spans in /traces
// (queue wait: batch-window plus admission-wait). batch.window_wait_ns gets
// one observation per batched job, summing to their batch-window spans.
// decode_ns is positive and within the request's wall time, and the job
// record carries the same value.
func TestSolveStageAccount(t *testing.T) {
	for _, window := range []time.Duration{0, 300 * time.Millisecond} {
		reg := telemetry.NewRegistry()
		s := service.New(service.Options{Workers: 1, Metrics: reg, BatchWindow: window})
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(func() { hs.Close(); _ = s.Close() })
		c := client.New(hs.URL)
		ctx := context.Background()
		info, err := c.RegisterMatgen(ctx, "lap64x64", "")
		if err != nil {
			t.Fatal(err)
		}
		const solves = 4
		resps := make([]service.SolveResponse, solves)
		errs := make([]error, solves)
		solve := func(i int) {
			body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, ReturnSolution: i%2 == 0})
			t0 := time.Now()
			resp, out, err := rawSolve(hs.URL, body, nil)
			wall := time.Since(t0)
			switch {
			case err != nil:
				errs[i] = err
			case resp.StatusCode != http.StatusOK:
				errs[i] = fmt.Errorf("HTTP %d: %s", resp.StatusCode, out)
			default:
				errs[i] = json.Unmarshal(out, &resps[i])
			}
			if errs[i] == nil && (resps[i].DecodeNS <= 0 || resps[i].DecodeNS > wall.Nanoseconds()) {
				errs[i] = fmt.Errorf("decode_ns %d outside (0, wall %d]", resps[i].DecodeNS, wall.Nanoseconds())
			}
		}
		solve(0)
		var wg sync.WaitGroup
		for i := 1; i < solves; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); solve(i) }(i)
		}
		wg.Wait()

		sums := map[string]int64{}
		batched := 0
		for i, sr := range resps {
			if errs[i] != nil {
				t.Fatalf("window %v, solve %d: %v", window, i, errs[i])
			}
			if sr.Batch != nil {
				batched++
			}
			ji, err := c.Job(ctx, sr.JobID)
			if err != nil || ji.DecodeNS != sr.DecodeNS {
				t.Errorf("window %v, solve %d: job record decode_ns %d (err %v), response %d", window, i, ji.DecodeNS, err, sr.DecodeNS)
			}
			tr, ok := s.Traces().Get(sr.TraceID)
			if !ok {
				t.Fatalf("window %v, solve %d: no trace %s", window, i, sr.TraceID)
			}
			win := spanNS(tr.Root, "batch-window")
			sums["service.job.decode_ns"] += spanNS(tr.Root, "decode")
			sums["service.job.queue_wait_ns"] += win + spanNS(tr.Root, "admission-wait")
			sums["service.job.total_ns"] += spanNS(tr.Root, "job")
			sums["service.job.encode_ns"] += spanNS(tr.Root, "encode")
			sums["batch.window_wait_ns"] += win
		}
		wantBatched := 0
		if window > 0 {
			wantBatched = solves - 1 // every warm solve waits in a window
		}
		if batched != wantBatched {
			t.Fatalf("window %v: %d batched solves, want %d", window, batched, wantBatched)
		}
		snap := reg.Snapshot()
		for name, sum := range sums {
			count := int64(solves)
			if name == "batch.window_wait_ns" {
				count = int64(batched)
			}
			if h := snap.Histograms[name]; h.Count != count || h.Sum != float64(sum) {
				t.Errorf("window %v: %s has %d observations summing to %.0f ns; want %d summing to the spans' %d ns",
					window, name, h.Count, h.Sum, count, sum)
			}
		}
	}
}

// spanNS sums the durations of the spans named name in the tree under s.
func spanNS(s telemetry.SpanSnapshot, name string) int64 {
	var ns int64
	if s.Name == name {
		ns = s.NS
	}
	for _, c := range s.Children {
		ns += spanNS(c, name)
	}
	return ns
}
