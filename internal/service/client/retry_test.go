package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

type retryAfterCase struct {
	name string
	in   string
	want time.Duration
}

// retryAfterCases is the table of Retry-After values and the waits they
// parse to at now.
func retryAfterCases(now time.Time) []retryAfterCase {
	return []retryAfterCase{
		{"empty", "", 0},
		{"delta-seconds", "7", 7 * time.Second},
		{"delta-zero", "0", 0},
		{"delta-negative", "-3", 0},
		{"http-date-future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http-date-past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http-date-rfc850", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
		// Overflowing waits clamp at 2^31 s: 18446744074 s wraps a Duration
		// to ~0.29 s, 9300000000 s to a negative one, and the 20-digit
		// value is out of Atoi's range.
		{"delta-wraps-small", "18446744074", maxRetryAfter},
		{"delta-wraps-negative", "9300000000", maxRetryAfter},
		{"delta-out-of-range", "99999999999999999999", maxRetryAfter},
		{"delta-negative-out-of-range", "-99999999999999999999", 0},
		{"http-date-far-future", now.AddDate(100, 0, 0).Format(http.TimeFormat), maxRetryAfter},
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range retryAfterCases(now) {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.in, now); got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// FuzzParseRetryAfter feeds untrusted header values to parseRetryAfter: the
// wait it returns is never negative and never above maxRetryAfter, whatever
// the form. Seeds are the table above.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range retryAfterCases(now) {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d := parseRetryAfter(s, now); d < 0 || d > maxRetryAfter {
			t.Fatalf("parseRetryAfter(%q) = %v, want within [0, %v]", s, d, maxRetryAfter)
		}
	})
}

func TestDecodeAPIErrorHTTPDateRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(service.ErrorBody{Error: "saturated"})
	}))
	defer srv.Close()

	c := New(srv.URL)
	_, err := c.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.RetryAfter < 8*time.Second || apiErr.RetryAfter > 10*time.Second {
		t.Fatalf("RetryAfter = %v, want ~10s from HTTP-date", apiErr.RetryAfter)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"429", &APIError{StatusCode: 429}, true},
		{"503", &APIError{StatusCode: 503}, true},
		{"400", &APIError{StatusCode: 400}, false},
		{"404", &APIError{StatusCode: 404}, false},
		{"500", &APIError{StatusCode: 500}, false},
		{"504", &APIError{StatusCode: 504}, false},
		{"transport", errors.New("connection refused"), true},
		{"ctx-cancel", context.Canceled, false},
		{"ctx-deadline", context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Retryable(tc.err); got != tc.want {
				t.Fatalf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// fakeSolveServer scripts a sequence of responses for POST /api/v1/solve.
type fakeSolveServer struct {
	t        *testing.T
	calls    atomic.Int64
	script   []func(w http.ResponseWriter, r *http.Request)
	lastKey  atomic.Value // string: last Idempotency-Key seen
	deadline atomic.Value // string: last deadline header seen
}

func (f *fakeSolveServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(f.calls.Add(1)) - 1
		f.lastKey.Store(r.Header.Get(service.HeaderIdempotencyKey))
		f.deadline.Store(r.Header.Get(service.HeaderDeadlineMS))
		if n >= len(f.script) {
			f.t.Errorf("unexpected call %d", n+1)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		f.script[n](w, r)
	})
}

func ok(jobID string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.SolveResponse{JobID: jobID, Converged: true})
	}
}

func reject(status int, retryAfter string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(service.ErrorBody{Error: "busy", RetryAfterS: 1})
	}
}

// instantPolicy retries without real sleeping, recording the waits.
func instantPolicy(n int, waits *[]time.Duration) RetryPolicy {
	pol := DefaultRetryPolicy(n)
	pol.sleep = func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return nil
	}
	pol.jitter = func() float64 { return 1.0 }
	return pol
}

func TestSolveRetrySucceedsAfter429(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){
		reject(429, "2"),
		reject(503, ""),
		ok("job-3"),
	}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	var waits []time.Duration
	c := New(srv.URL)
	out, st, err := c.SolveRetry(context.Background(), service.SolveRequest{Matrix: "m"}, instantPolicy(5, &waits))
	if err != nil {
		t.Fatal(err)
	}
	if out.JobID != "job-3" || st.Attempts != 3 {
		t.Fatalf("job=%s attempts=%d", out.JobID, st.Attempts)
	}
	// First wait honors the server's Retry-After (2s); second falls back to
	// backoff with jitter=1: BaseDelay<<1 = 400ms.
	if len(waits) != 2 || waits[0] != 2*time.Second || waits[1] != 400*time.Millisecond {
		t.Fatalf("waits = %v", waits)
	}
	if st.IdempotencyKey == "" || f.lastKey.Load().(string) != st.IdempotencyKey {
		t.Fatalf("idempotency key not constant across attempts: %q vs %q", st.IdempotencyKey, f.lastKey.Load())
	}
}

func TestSolveRetryNeverRetriesNonRetryable(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){
		reject(400, ""),
	}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	var waits []time.Duration
	c := New(srv.URL)
	_, st, err := c.SolveRetry(context.Background(), service.SolveRequest{}, instantPolicy(5, &waits))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("err = %v", err)
	}
	if st.Attempts != 1 || len(waits) != 0 {
		t.Fatalf("attempts=%d waits=%v; 4xx must not be retried", st.Attempts, waits)
	}
}

func TestSolveRetryExhaustsAttempts(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){
		reject(429, ""), reject(429, ""), reject(429, ""),
	}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	var waits []time.Duration
	c := New(srv.URL)
	_, st, err := c.SolveRetry(context.Background(), service.SolveRequest{}, instantPolicy(3, &waits))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("err = %v", err)
	}
	if st.Attempts != 3 || len(waits) != 2 {
		t.Fatalf("attempts=%d waits=%d", st.Attempts, len(waits))
	}
}

func TestSolveRetryStopsWhenDelayOutlivesDeadline(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){
		reject(429, "3600"), // an hour-long Retry-After
	}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var waits []time.Duration
	c := New(srv.URL)
	start := time.Now()
	_, st, err := c.SolveRetry(ctx, service.SolveRequest{}, instantPolicy(5, &waits))
	if err == nil {
		t.Fatal("expected error")
	}
	if st.Attempts != 1 || len(waits) != 0 {
		t.Fatalf("attempts=%d waits=%v; must not sleep into a guaranteed timeout", st.Attempts, waits)
	}
	if time.Since(start) > time.Second {
		t.Fatal("retry loop waited instead of returning promptly")
	}
}

func TestSolveRetryPropagatesDeadlineHeader(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){ok("j")}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := New(srv.URL)
	if _, _, err := c.SolveRetry(ctx, service.SolveRequest{}, DefaultRetryPolicy(1)); err != nil {
		t.Fatal(err)
	}
	hdr, _ := f.deadline.Load().(string)
	if hdr == "" {
		t.Fatal("deadline header missing")
	}
	ms, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Fatalf("deadline header = %q, want ~5000ms remaining", hdr)
	}
}

func TestSolveRetryReplayedFlag(t *testing.T) {
	f := &fakeSolveServer{t: t, script: []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(service.HeaderIdempotentReplay, "1")
			json.NewEncoder(w).Encode(service.SolveResponse{JobID: "orig", Replayed: true})
		},
	}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c := New(srv.URL)
	out, st, err := c.SolveRetry(context.Background(), service.SolveRequest{}, DefaultRetryPolicy(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Replayed || !st.Replayed {
		t.Fatal("replay not surfaced")
	}
}

func TestSolveTracedRetryKeepsOneTrace(t *testing.T) {
	var traceparents []string
	f := &fakeSolveServer{t: t}
	f.script = []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			traceparents = append(traceparents, r.Header.Get("traceparent"))
			reject(429, "")(w, r)
		},
		func(w http.ResponseWriter, r *http.Request) {
			traceparents = append(traceparents, r.Header.Get("traceparent"))
			ok("j")(w, r)
		},
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	var waits []time.Duration
	c := New(srv.URL)
	_, tc, _, err := c.SolveTracedRetry(context.Background(), service.SolveRequest{}, trace.Context{}, instantPolicy(2, &waits))
	if err != nil {
		t.Fatal(err)
	}
	if len(traceparents) != 2 || traceparents[0] != traceparents[1] {
		t.Fatalf("traceparents = %v, want identical across attempts", traceparents)
	}
	if !tc.Valid() {
		t.Fatal("returned trace context invalid")
	}
}

func TestNewIdempotencyKeyUnique(t *testing.T) {
	a, b := NewIdempotencyKey(), NewIdempotencyKey()
	if a == b || len(a) != 32 {
		t.Fatalf("keys %q %q", a, b)
	}
}
