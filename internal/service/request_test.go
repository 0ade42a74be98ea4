package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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
	res := krylov.Solve(a, x, b, p.CloneForApply(workers), krylov.Options{Tol: 1e-8, MaxIter: 10000, Workers: workers})
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

// TestSolveStageAccount: decode_ns is positive and within the request's
// wall time, the job record carries the same value, and the decode and
// encode histograms get one observation per solve.
func TestSolveStageAccount(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := service.New(service.Options{Workers: 1, Metrics: reg})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	c := client.New(hs.URL)
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	const solves = 3
	for i := 0; i < solves; i++ {
		body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, ReturnSolution: i%2 == 0})
		t0 := time.Now()
		resp, out, err := rawSolve(hs.URL, body, nil)
		wall := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %v %s", i, err, out)
		}
		var sr service.SolveResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.DecodeNS <= 0 || sr.DecodeNS > wall.Nanoseconds() {
			t.Errorf("solve %d: decode_ns %d outside (0, wall %d]", i, sr.DecodeNS, wall.Nanoseconds())
		}
		ji, err := c.Job(ctx, sr.JobID)
		if err != nil || ji.DecodeNS != sr.DecodeNS {
			t.Errorf("solve %d: job record decode_ns %d (err %v), response %d", i, ji.DecodeNS, err, sr.DecodeNS)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"service.job.decode_ns", "service.job.encode_ns"} {
		if got := snap.Histograms[name].Count; got != solves {
			t.Errorf("%s: %d observations, want %d", name, got, solves)
		}
	}
}
