package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// spanNames flattens a span tree into the set of span names it contains.
func spanNames(s telemetry.SpanSnapshot, into map[string]bool) {
	into[s.Name] = true
	for _, c := range s.Children {
		spanNames(c, into)
	}
}

// spanAttr returns the value of an attribute on a span.
func spanAttr(s telemetry.SpanSnapshot, key string) string {
	return s.Attrs[key]
}

// TestTracePropagationEndToEnd is the tentpole acceptance check: a single
// solve through the typed client produces one connected span tree — client
// trace id → admission → cache → setup phases → CG — retrievable from
// /traces by that id, with the same id in the job record and the schema-v5
// run report.
func TestTracePropagationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, service.Options{RunsDir: dir, Metrics: telemetry.NewRegistry()})
	ctx := context.Background()

	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	sent := trace.New()
	resp, used, err := c.SolveTraced(ctx,
		service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}, sent)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if used != sent {
		t.Fatalf("client replaced a valid trace context: %+v vs %+v", used, sent)
	}
	if resp.TraceID != sent.TraceID {
		t.Fatalf("response trace id %q, want the inbound %q", resp.TraceID, sent.TraceID)
	}

	// The daemon continued the client's trace: same trace id, server root
	// span parented under the client's span.
	tr, ok := s.Traces().Get(sent.TraceID)
	if !ok {
		t.Fatalf("recorder has no trace %s", sent.TraceID)
	}
	if tr.ParentSpanID != sent.SpanID {
		t.Fatalf("server root parented under %q, want client span %q",
			tr.ParentSpanID, sent.SpanID)
	}
	if tr.SpanID == sent.SpanID {
		t.Fatal("server must mint its own span id, not reuse the client's")
	}
	if tr.JobID != resp.JobID || tr.Fingerprint != info.Fingerprint {
		t.Fatalf("trace not tied to the job: %+v vs job %s", tr, resp.JobID)
	}

	// One connected tree covering every layer of the solve.
	if tr.Root.Name != "solve-request" {
		t.Fatalf("root span %q, want solve-request", tr.Root.Name)
	}
	names := map[string]bool{}
	spanNames(tr.Root, names)
	for _, want := range []string{
		"solve-request", "admission-wait", "precond-cache", "cg-solve",
	} {
		if !names[want] {
			t.Errorf("span tree missing %q: have %v", want, names)
		}
	}
	foundSetup := false
	for name := range names {
		if len(name) > 11 && name[:11] == "fsai-setup:" {
			foundSetup = true
		}
	}
	if !foundSetup {
		t.Errorf("span tree missing fsai-setup:* phase spans: %v", names)
	}
	if got := spanAttr(tr.Root, "job_id"); got != resp.JobID {
		t.Errorf("root span job_id attr %q, want %q", got, resp.JobID)
	}
	if got := spanAttr(tr.Root, "outcome"); got != resp.Status {
		t.Errorf("root span outcome attr %q, want %q", got, resp.Status)
	}

	// /traces and /traces/<id> serve the same trace over HTTP.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+sent.TraceID, nil))
	if rr.Code != 200 {
		t.Fatalf("GET /traces/<id> status %d", rr.Code)
	}
	var doc trace.Trace
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/traces/<id> not JSON: %v", err)
	}
	if doc.TraceID != sent.TraceID || doc.Root.Name != "solve-request" {
		t.Fatalf("/traces/<id> document: %+v", doc)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	var list []trace.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(list) != 1 || list[0].TraceID != sent.TraceID || list[0].Spans < 4 {
		t.Fatalf("/traces listing: %+v", list)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+trace.NewTraceID(), nil))
	if rr.Code != 404 {
		t.Fatalf("unknown trace id served %d, want 404", rr.Code)
	}

	// The job record and the schema-v5 run report both carry the trace id.
	ji, err := c.Job(ctx, resp.JobID)
	if err != nil || ji.TraceID != sent.TraceID {
		t.Fatalf("job record trace id: %+v err=%v", ji, err)
	}
	rep, err := experiments.ReadRunReportFile(filepath.Join(dir, resp.Report))
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if rep.Schema != experiments.RunReportSchemaVersion {
		t.Fatalf("report schema %d, want %d", rep.Schema, experiments.RunReportSchemaVersion)
	}
	svc := rep.Entries[0].Service
	if svc == nil || svc.TraceID != sent.TraceID {
		t.Fatalf("report service section missing trace id: %+v", svc)
	}
	if rep.Entries[0].SLO == nil || rep.Entries[0].SLO.Kind != "cold_solve" {
		t.Fatalf("report missing slo section: %+v", rep.Entries[0].SLO)
	}
}

// TestSolveWithoutTraceparentOriginatesTrace: the daemon mints a fresh valid
// trace when the client sends none, and returns it in the traceparent
// response header.
func TestSolveWithoutTraceparentOriginatesTrace(t *testing.T) {
	s, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi"})
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/api/v1/solve", bytes.NewReader(body))
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("solve status %d: %s", rr.Code, rr.Body.String())
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	tc, err := trace.ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent header: %v", err)
	}
	if tc.TraceID != resp.TraceID {
		t.Fatalf("header trace id %q != body trace id %q", tc.TraceID, resp.TraceID)
	}
	got, ok := s.Traces().Get(resp.TraceID)
	if !ok || got.ParentSpanID != "" {
		t.Fatalf("server-originated trace should have no parent: %+v ok=%v", got, ok)
	}
}

// TestMalformedTraceparentIsRejectedGracefully: a garbage header must not
// fail the job — the daemon counts it, originates a fresh trace and solves.
func TestMalformedTraceparentIsRejectedGracefully(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, c := newTestServer(t, service.Options{Metrics: reg})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi"})
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/api/v1/solve", bytes.NewReader(body))
	req.Header.Set("traceparent", "zz-not-a-traceparent")
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("malformed traceparent failed the solve: %d %s", rr.Code, rr.Body.String())
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	fresh := trace.Context{TraceID: resp.TraceID, SpanID: "1234567890abcdef"}
	if !fresh.Valid() {
		t.Fatalf("fresh trace id %q not a valid W3C id", resp.TraceID)
	}
	if _, ok := s.Traces().Get(resp.TraceID); !ok {
		t.Fatal("fresh trace not recorded")
	}
	if got := reg.Snapshot().Counters["trace.malformed_traceparent"]; got != 1 {
		t.Fatalf("trace.malformed_traceparent = %d, want 1", got)
	}
}

// TestConcurrentJobsIsolateSpanTrees floods the daemon with concurrent
// traced solves and asserts no trace ever carries another job's spans —
// the per-job tracer contract, exercised under the race detector.
func TestConcurrentJobsIsolateSpanTrees(t *testing.T) {
	s, c := newTestServer(t, service.Options{Workers: 4, TraceHistory: 64})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 12
	type outcome struct {
		tc   trace.Context
		resp *service.SolveResponse
		err  error
	}
	results := make([]outcome, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := trace.New()
			resp, _, err := c.SolveTraced(ctx,
				service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}, tc)
			results[i] = outcome{tc: tc, resp: resp, err: err}
		}(i)
	}
	wg.Wait()

	seenJobs := map[string]bool{}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("job %d: %v", i, r.err)
		}
		if r.resp.TraceID != r.tc.TraceID {
			t.Fatalf("job %d answered under trace %q, want %q", i, r.resp.TraceID, r.tc.TraceID)
		}
		tr, ok := s.Traces().Get(r.tc.TraceID)
		if !ok {
			t.Fatalf("job %d trace missing from recorder", i)
		}
		if tr.JobID != r.resp.JobID {
			t.Fatalf("trace %s records job %q, response says %q", r.tc.TraceID, tr.JobID, r.resp.JobID)
		}
		if got := spanAttr(tr.Root, "job_id"); got != r.resp.JobID {
			t.Fatalf("trace %s root span tagged job %q, want %q", r.tc.TraceID, got, r.resp.JobID)
		}
		if seenJobs[tr.JobID] {
			t.Fatalf("job %q appears in two traces", tr.JobID)
		}
		seenJobs[tr.JobID] = true
		if tr.Root.Name != "solve-request" || len(tr.Root.Children) == 0 {
			t.Fatalf("trace %s has a broken tree: %+v", r.tc.TraceID, tr.Root)
		}
	}
}

// TestRejectedJobErrorCarriesIdentifiers: a 429 from a saturated daemon must
// quote the daemon-assigned job id and the caller's trace id, so the client
// can find the rejection in logs and /traces.
func TestRejectedJobErrorCarriesIdentifiers(t *testing.T) {
	s, c := newTestServer(t, service.Options{MaxInflight: 1, QueueCap: -1})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}

	holdDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, service.SolveRequest{
			Matrix: info.Fingerprint, Precond: "jacobi", HoldMS: 1500, MaxIter: 5,
		})
		holdDone <- err
	}()
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

	sent := trace.New()
	_, used, err := c.SolveTraced(ctx,
		service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi"}, sent)
	if err == nil {
		t.Fatal("saturated daemon accepted the job, want 429")
	}
	if used.TraceID != sent.TraceID {
		t.Fatalf("error path returned trace %q, want %q", used.TraceID, sent.TraceID)
	}
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("saturation error: %v", err)
	}
	if apiErr.Body.JobID == "" {
		t.Fatal("429 body missing the daemon-assigned job id")
	}
	if apiErr.Body.TraceID != sent.TraceID {
		t.Fatalf("429 body trace id %q, want %q", apiErr.Body.TraceID, sent.TraceID)
	}
	// The rejection itself leaves a trace ending at admission.
	tr, ok := s.Traces().Get(sent.TraceID)
	if !ok || tr.Status != service.JobRejected {
		t.Fatalf("rejected job trace: %+v ok=%v", tr, ok)
	}
	names := map[string]bool{}
	spanNames(tr.Root, names)
	if !names["admission-wait"] || names["cg-solve"] {
		t.Fatalf("rejected trace should end at admission: %v", names)
	}

	if err := <-holdDone; err != nil {
		t.Fatalf("holding job: %v", err)
	}
}

// TestIterationAnomalyDetection covers the baseline math and the warm-solve
// wiring: the first converged solve on a cached factor sets the baseline,
// and a drifting warm solve is flagged.
func TestIterationAnomalyDetection(t *testing.T) {
	cases := []struct {
		baseline, iters int
		want            bool
	}{
		{0, 1000, false}, // no baseline yet — nothing to compare
		{100, 100, false},
		{100, 160, false}, // exactly at the threshold: 100*1.5+10
		{100, 161, true},
		{10, 26, true}, // 10*1.5+10 = 25
		{10, 25, false},
	}
	for _, tc := range cases {
		if got := service.IterationAnomaly(tc.baseline, tc.iters); got != tc.want {
			t.Errorf("IterationAnomaly(%d, %d) = %v, want %v", tc.baseline, tc.iters, got, tc.want)
		}
	}

	// Wire-level: warm solves at the cold solve's iteration count must not
	// be flagged (same operator, same RHS — identical iterations).
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	cold, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IterAnomaly {
		t.Fatal("cold solve flagged anomalous — baseline must not apply to itself")
	}
	warm, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != service.CacheHit {
		t.Fatalf("second solve cache=%q", warm.Cache)
	}
	if warm.IterAnomaly {
		t.Fatalf("identical warm solve flagged anomalous (cold %d iters, warm %d)",
			cold.Iterations, warm.Iterations)
	}
}

// TestSLOSectionTracksWarmAndCold: the daemon's /slo endpoint reports the
// per-fingerprint series the two solves created.
func TestSLOSectionTracksWarmAndCold(t *testing.T) {
	s, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	if _, err := c.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("/slo status %d", rr.Code)
	}
	var rep struct {
		Series []struct {
			Fingerprint string `json:"fingerprint"`
			SLO         string `json:"slo"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	got := map[string]bool{}
	for _, se := range rep.Series {
		if se.Fingerprint == info.Fingerprint {
			got[se.SLO] = true
		}
	}
	for _, want := range []string{"cold_solve", "warm_solve", "queue_wait"} {
		if !got[want] {
			t.Errorf("/slo missing %s series for the solved fingerprint: %v", want, got)
		}
	}
}

// TestSpanTreeIsTheStageClock: a job's span tree is the only record of its
// stage times. One daemon runs a cold and a warm fsaie solve, a held jacobi
// job and the 429 it causes, and a resilient job that recovers from an
// injected NaN; a batching daemon runs a priming solve and a batch of three
// warm solves. Every trace's root has exactly the children decode, job and
// encode, in that order, and for solved jobs they cover at least 98% of the
// root. The response's decode_ns, total_ns, queue_wait_ns, window_wait_ns
// and setup_ns equal their spans, the job record equals the response, and
// every run report's solve_wall_ns equals its timing.total_ns. The
// recovered job's report adds up too: its solve attempts' ns sum to
// solve_wall_ns, and its trace has one cg-solve span per solve attempt.
func TestSpanTreeIsTheStageClock(t *testing.T) {
	ctx := context.Background()
	dirA, dirB := t.TempDir(), t.TempDir()
	sa, ca := newTestServer(t, service.Options{RunsDir: dirA, MaxInflight: 1, QueueCap: -1})
	sb, cb := newTestServer(t, service.Options{RunsDir: dirB, BatchWindow: 300 * time.Millisecond})
	type solved struct {
		s    *service.Server
		c    *client.Client
		resp *service.SolveResponse
	}
	var jobs []solved
	solve := func(s *service.Server, c *client.Client, req service.SolveRequest, cache string) {
		t.Helper()
		resp, err := c.Solve(ctx, req)
		if err != nil || resp.Cache != cache {
			t.Fatalf("solve %+v: %+v, err %v; want cache %s", req, resp, err, cache)
		}
		jobs = append(jobs, solved{s, c, resp})
	}

	info, err := ca.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
	solve(sa, ca, req, service.CacheMiss)
	solve(sa, ca, req, service.CacheHit)
	held := make(chan *service.SolveResponse, 1)
	go func() {
		resp, err := ca.Solve(ctx, service.SolveRequest{
			Matrix: info.Fingerprint, Precond: "jacobi", HoldMS: 1000, MaxIter: 5})
		if err != nil {
			t.Errorf("held job: %v", err)
		}
		held <- resp
	}()
	waitForInflight(t, ca, 1)
	_, err = ca.Solve(ctx, req)
	var rejected *client.APIError
	if !asAPIError(err, &rejected) || rejected.StatusCode != 429 {
		t.Fatalf("solve on a saturated daemon: %v, want 429", err)
	}
	resp := <-held
	if resp == nil {
		t.FailNow()
	}
	jobs = append(jobs, solved{sa, ca, resp})
	// The fsaie attempt breaks on the NaN; fsaie-sp, built cold, recovers.
	restore := faultinject.Activate(faultinject.New(21).WithSpMVNaN(4))
	solve(sa, ca, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie", Resilient: true}, service.CacheMiss)
	restore()
	recovered := jobs[len(jobs)-1].resp
	if !recovered.Converged || recovered.Precond == "fsaie" {
		t.Fatalf("resilient solve: %+v, want convergence on a fallback rung", recovered)
	}

	if _, err := cb.RegisterMatgen(ctx, "lap64x64", ""); err != nil {
		t.Fatal(err)
	}
	solve(sb, cb, req, service.CacheMiss)
	batch := make([]*service.SolveResponse, 3)
	var wg sync.WaitGroup
	for i := range batch {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cb.Solve(ctx, req)
			if err != nil || resp.Batch == nil {
				t.Errorf("batched solve %d: %+v, err %v", i, resp, err)
			}
			batch[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, resp := range batch {
		jobs = append(jobs, solved{sb, cb, resp})
	}

	// The 429's tree has the same three stages.
	tr, ok := sa.Traces().Get(rejected.Body.TraceID)
	if !ok || tr.Status != service.JobRejected {
		t.Fatalf("429 trace: %+v ok=%v", tr, ok)
	}
	if got := stageNames(tr.Root); got != "decode,job,encode" {
		t.Errorf("429 trace stages %s, want decode,job,encode", got)
	}
	if ji, err := ca.Job(ctx, rejected.Body.JobID); err != nil || ji.State != service.JobRejected || ji.TraceID != tr.TraceID {
		t.Errorf("429 job record: %+v err=%v", ji, err)
	}

	for _, j := range jobs {
		r := j.resp
		tr, ok := j.s.Traces().Get(r.TraceID)
		if !ok {
			t.Fatalf("job %s: no trace", r.JobID)
		}
		root := tr.Root
		if got := stageNames(root); got != "decode,job,encode" {
			t.Errorf("job %s: stages %s, want decode,job,encode", r.JobID, got)
		}
		var covered int64
		for _, c := range root.Children {
			covered += c.NS
		}
		if float64(covered) < 0.98*float64(root.NS) {
			t.Errorf("job %s: stages cover %d of %d ns (%.2f%%), want >= 98%%",
				r.JobID, covered, root.NS, 100*float64(covered)/float64(root.NS))
		}
		window := spanNS(root, "batch-window")
		for _, f := range []struct {
			field      string
			got, spans int64
		}{
			{"decode_ns", r.DecodeNS, spanNS(root, "decode")},
			{"total_ns", r.TotalNS, spanNS(root, "job")},
			{"queue_wait_ns", r.QueueWaitNS, window + spanNS(root, "admission-wait")},
		} {
			if f.got != f.spans || f.got <= 0 {
				t.Errorf("job %s: %s = %d, spans say %d", r.JobID, f.field, f.got, f.spans)
			}
		}
		if r.Batch != nil && r.Batch.WindowWaitNS != window {
			t.Errorf("job %s: window_wait_ns = %d, batch-window span %d", r.JobID, r.Batch.WindowWaitNS, window)
		}
		if r.SetupNS != spanNS(root, "setup") {
			t.Errorf("job %s: setup_ns = %d, setup spans %d", r.JobID, r.SetupNS, spanNS(root, "setup"))
		}
		ji, err := j.c.Job(ctx, r.JobID)
		if err != nil {
			t.Fatalf("job %s record: %v", r.JobID, err)
		}
		want := service.JobInfo{
			ID: r.JobID, TraceID: r.TraceID, Matrix: r.Matrix, Precond: r.Precond,
			State: service.JobDone, Cache: r.Cache, Status: r.Status,
			Iterations: r.Iterations, Converged: r.Converged, RelRes: r.RelRes,
			DecodeNS: r.DecodeNS, QueueWaitNS: r.QueueWaitNS, SetupNS: r.SetupNS,
			SolveNS: r.SolveNS, TotalNS: r.TotalNS,
			EnqueuedAt: ji.EnqueuedAt, FinishedAt: ji.FinishedAt,
		}
		if r.Batch != nil {
			want.Batch = r.Batch.ID
		}
		if ji != want {
			t.Errorf("job %s: record %+v, response says %+v", r.JobID, ji, want)
		}
	}

	// One solve time per report: the block's kernel timing total.
	for dir, n := range map[string]int{dirA: 4, dirB: 4} {
		names, _ := filepath.Glob(filepath.Join(dir, "j-*.json"))
		if len(names) != n {
			t.Fatalf("%d run reports in %s, want %d", len(names), dir, n)
		}
		for _, name := range names {
			rep, err := experiments.ReadRunReportFile(name)
			if err != nil {
				t.Fatal(err)
			}
			e := rep.Entries[0]
			if e.Timing == nil || e.SolveWallNS != e.Timing.TotalNS {
				t.Errorf("%s: solve_wall_ns %d, timing %+v", filepath.Base(name), e.SolveWallNS, e.Timing)
			}
		}
	}
	rep, err := experiments.ReadRunReportFile(filepath.Join(dirA, recovered.Report))
	if err != nil {
		t.Fatal(err)
	}
	rs := rep.Entries[0].Resilience
	if rs == nil || !rs.Recovered {
		t.Fatalf("recovered job's resilience section: %+v", rs)
	}
	var attempts int
	var attemptNS int64
	for _, at := range rs.Attempts {
		if at.Stage == "solve" {
			attempts++
			attemptNS += at.NS
		}
	}
	if e := rep.Entries[0]; attempts < 2 || attemptNS != e.SolveWallNS || recovered.SolveNS != e.SolveWallNS {
		t.Errorf("recovered job: %d solve attempts sum to %d ns; solve_wall_ns %d, solve_ns %d",
			attempts, attemptNS, e.SolveWallNS, recovered.SolveNS)
	}
	tr, _ = sa.Traces().Get(recovered.TraceID)
	if n := spanCount(tr.Root, "cg-solve"); n != attempts {
		t.Errorf("recovered job: %d cg-solve spans for %d solve attempts", n, attempts)
	}
}

// spanCount counts the spans called name in the tree under s.
func spanCount(s telemetry.SpanSnapshot, name string) int {
	n := 0
	if s.Name == name {
		n = 1
	}
	for _, c := range s.Children {
		n += spanCount(c, name)
	}
	return n
}

// stageNames lists the names of root's direct children, comma-separated.
func stageNames(root telemetry.SpanSnapshot) string {
	names := make([]string, len(root.Children))
	for i, c := range root.Children {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}
