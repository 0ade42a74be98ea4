package service_test

// The reconciliation test: fsaid counts each event once, in its telemetry
// registry, and every surface that shows the count — /metrics, the JSON
// views, the job log, the responses, the run reports and the traces — must
// say the same number. docs/observability.md ("Every exported number")
// names this test as the proof for the daemon's series.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/roofline"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// answer is one solve request's HTTP answer as its client saw it.
type answer struct {
	code int
	resp service.SolveResponse // code 200
	errb service.ErrorBody     // any other code
}

// post sends one solve request and decodes the answer. Safe to call from a
// goroutine: failures are reported with t.Error.
func post(t *testing.T, url string, req service.SolveRequest, headers map[string]string) answer {
	body, _ := json.Marshal(req)
	hr, out, err := rawSolve(url, body, headers)
	if err != nil {
		t.Errorf("solve %+v: %v", req, err)
		return answer{}
	}
	a := answer{code: hr.StatusCode}
	var into any = &a.errb
	if a.code == http.StatusOK {
		into = &a.resp
	}
	if err := json.Unmarshal(out, into); err != nil {
		t.Errorf("solve %+v: HTTP %d, undecodable body %q: %v", req, a.code, out, err)
	}
	return a
}

// scrapeMetrics parses GET /metrics into sample (name plus labels) → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad /metrics sample %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// queueAgrees asserts that /metrics and /api/v1/stats report the same
// admission state, and returns it.
func queueAgrees(t *testing.T, url string) service.QueueStats {
	t.Helper()
	m := scrapeMetrics(t, url)
	var st service.Stats
	getJSON(t, url+"/api/v1/stats", &st)
	q := st.Queue
	for name, want := range map[string]float64{
		"service_queue_depth":   float64(q.Depth),
		"service_jobs_inflight": float64(q.Inflight),
		"service_jobs_rejected": float64(q.Rejected),
	} {
		if m[name] != want {
			t.Errorf("%s = %v on /metrics, %v on /api/v1/stats", name, m[name], want)
		}
	}
	return q
}

// outcomeOf is the one word a job's trace, record and service_jobs series
// carry: the solver status of a solved job, "failed" or "rejected".
func outcomeOf(a answer) string {
	switch a.code {
	case http.StatusOK:
		return a.resp.Status
	case http.StatusInternalServerError:
		return service.JobFailed
	}
	return service.JobRejected
}

// reconcile reads every surface of the daemon at url (whose run reports
// land in runsDir) after the answers, all of them jobs, have come back, and
// asserts that each number agrees with its neighbours. It returns the
// /metrics samples and the /api/v1/stats document for exact pins.
func reconcile(t *testing.T, url, runsDir string, answers []answer) (map[string]float64, service.Stats) {
	t.Helper()
	m := scrapeMetrics(t, url)
	var (
		st      service.Stats
		jobs    []service.JobInfo
		list    []trace.Summary
		sloRep  obs.SLOReport
		roofRep obs.RooflineReport
	)
	getJSON(t, url+"/api/v1/stats", &st)
	getJSON(t, url+"/api/v1/jobs", &jobs)
	getJSON(t, url+"/traces", &list)
	getJSON(t, url+"/slo", &sloRep)
	getJSON(t, url+"/roofline", &roofRep)
	traces := map[string]trace.Trace{} // by trace id
	for _, sum := range list {
		var tr trace.Trace
		getJSON(t, url+"/traces/"+sum.TraceID, &tr)
		traces[tr.TraceID] = tr
	}

	// /metrics against /api/v1/stats: one series behind each pair.
	pairs := map[string]float64{
		"service_matrices":        float64(st.Matrices),
		"service_cache_hits":      float64(st.Cache.Hits),
		"service_cache_misses":    float64(st.Cache.Misses),
		"service_cache_evictions": float64(st.Cache.Evictions),
		"service_cache_entries":   float64(st.Cache.Entries),
		"service_queue_depth":     float64(st.Queue.Depth),
		"service_jobs_inflight":   float64(st.Queue.Inflight),
		"service_jobs_rejected":   float64(st.Queue.Rejected),
	}
	if s := st.Store; s != nil {
		pairs[`store_entries{kind="matrix"}`] = float64(s.Matrices)
		pairs[`store_entries{kind="factor"}`] = float64(s.Factors)
		pairs["store_bytes"] = float64(s.Bytes)
		pairs["store_corrupt_total"] = float64(s.Corrupt)
	}
	for name, want := range pairs {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v) on /metrics, %v on /api/v1/stats", name, got, ok, want)
		}
	}

	// Every finished job once, under one outcome, on every surface: the
	// answers, service_jobs, the job log and the traces.
	byAnswer, byMetric, byRecord, byTrace := map[string]int{}, map[string]int{}, map[string]int{}, map[string]int{}
	for _, a := range answers {
		byAnswer[outcomeOf(a)]++
	}
	total := 0
	for name, v := range m {
		if st, ok := strings.CutPrefix(name, `service_jobs{status="`); ok {
			byMetric[strings.TrimSuffix(st, `"}`)] = int(v)
			total += int(v)
		}
	}
	for _, ji := range jobs {
		switch ji.State {
		case service.JobDone:
			byRecord[ji.Status]++
		case service.JobFailed, service.JobRejected:
			byRecord[ji.State]++
		}
	}
	for _, tr := range traces {
		byTrace[tr.Status]++
	}
	if total != int(m["trace_recorded"]) || total != len(answers) {
		t.Errorf("sum(service_jobs) = %d, trace_recorded = %v, jobs answered = %d", total, m["trace_recorded"], len(answers))
	}
	for name, got := range map[string]map[string]int{"service_jobs": byMetric, "/api/v1/jobs": byRecord, "/traces": byTrace} {
		if !reflect.DeepEqual(got, byAnswer) {
			t.Errorf("outcomes on %s = %v, answers say %v", name, got, byAnswer)
		}
	}

	// The responses, their job records, traces and run reports describe the
	// same job.
	records := map[string]service.JobInfo{}
	for _, ji := range jobs {
		records[ji.ID] = ji
	}
	type placement struct {
		jobID   string
		kernels []roofline.Achieved
	}
	var placed []placement
	for _, a := range answers {
		if a.code != http.StatusOK {
			if ji := records[a.errb.JobID]; ji.State != outcomeOf(a) || ji.TraceID != a.errb.TraceID {
				t.Errorf("HTTP %d job %s: record %+v", a.code, a.errb.JobID, ji)
			}
			continue
		}
		r := a.resp
		ji := records[r.JobID]
		if ji.State != service.JobDone || ji.Status != r.Status || ji.Cache != r.Cache ||
			ji.Iterations != r.Iterations || ji.TraceID != r.TraceID {
			t.Errorf("job %s: response {status %s cache %s it %d} but record %+v", r.JobID, r.Status, r.Cache, r.Iterations, ji)
		}
		if tr := traces[r.TraceID]; tr.JobID != r.JobID || tr.Status != r.Status {
			t.Errorf("job %s: trace %s says job %q status %q, response %q", r.JobID, r.TraceID, tr.JobID, tr.Status, r.Status)
		}
		rep, err := experiments.ReadRunReportFile(filepath.Join(runsDir, r.Report))
		if err != nil {
			t.Fatalf("job %s: run report %q: %v", r.JobID, r.Report, err)
		}
		e := rep.Entries[0]
		if e.Service.JobID != r.JobID || e.Service.Cache != r.Cache || e.Service.TraceID != r.TraceID ||
			e.Iterations != r.Iterations || e.Status != r.Status || e.SolveWallNS != r.SolveNS {
			t.Errorf("job %s: report entry %+v / %+v disagrees with the response", r.JobID, e, e.Service)
		}
		if e.Roofline != nil {
			placed = append(placed, placement{r.JobID, e.Roofline.Kernels})
		}
	}

	// One cache lookup per job group or FSAI rung, each in a precond-cache
	// span.
	spans := 0
	for _, tr := range traces {
		spans += spanCount(tr.Root, "precond-cache")
	}
	if lookups := m["service_cache_hits"] + m["service_cache_misses"]; lookups != float64(spans) {
		t.Errorf("service_cache_hits + service_cache_misses = %v, precond-cache spans = %d", lookups, spans)
	}

	// One batch_size observation per batch: _count is the distinct batch
	// ids, _sum the batched responses.
	batches, batched := map[string]bool{}, 0
	for _, a := range answers {
		if b := a.resp.Batch; b != nil {
			batches[b.ID] = true
			batched++
		}
	}
	if m["batch_size_count"] != float64(len(batches)) || m["batch_size_sum"] != float64(batched) {
		t.Errorf("batch_size_count %v, _sum %v; responses: %d batch ids, %d batched", m["batch_size_count"], m["batch_size_sum"], len(batches), batched)
	}

	// SLO events: one per solved job and kind, on /metrics and /slo alike.
	want := map[string]int64{}
	for _, a := range answers {
		if a.code != http.StatusOK || a.resp.Status == service.StatusSetupOnly {
			continue
		}
		kind := obs.SLOColdSolve
		if a.resp.Cache == service.CacheHit {
			kind = obs.SLOWarmSolve
		}
		for _, k := range []string{kind, obs.SLOQueueWait} {
			want[`{fp="`+a.resp.Matrix+`",slo="`+k+`"}`]++
		}
	}
	got := map[string]int64{}
	for _, s := range sloRep.Series {
		lbl := `{fp="` + s.Fingerprint + `",slo="` + s.SLO + `"}`
		got[lbl] = s.TotalEvents
		if m["slo_events"+lbl] != float64(s.TotalEvents) || m["slo_breaches"+lbl] != float64(s.TotalBreaches) ||
			m["slo_latency_ns_p95"+lbl] != s.P95NS {
			t.Errorf("/slo series %s: events %d breaches %d p95 %v; /metrics %v %v %v", lbl, s.TotalEvents, s.TotalBreaches,
				s.P95NS, m["slo_events"+lbl], m["slo_breaches"+lbl], m["slo_latency_ns_p95"+lbl])
		}
		if m["slo_burn_rate"+lbl] != s.BurnRate || m["slo_budget_remaining"+lbl] != s.BudgetRemaining {
			t.Errorf("/slo series %s: burn %v budget %v; /metrics %v %v", lbl, s.BurnRate, s.BudgetRemaining,
				m["slo_burn_rate"+lbl], m["slo_budget_remaining"+lbl])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/slo total_events %v, solved responses %v", got, want)
	}

	// Roofline gauges: each (kernel, fp) series holds the kernel's value in
	// the last run report placed on the roofline, and /roofline agrees.
	sort.Slice(placed, func(i, j int) bool { return placed[i].jobID < placed[j].jobID })
	last := map[string]map[string]roofline.Achieved{} // short fp → kernel → placement
	for _, p := range placed {
		fp := records[p.jobID].Matrix[:12]
		if last[fp] == nil {
			last[fp] = map[string]roofline.Achieved{}
		}
		for _, k := range p.kernels {
			last[fp][k.Kernel] = k
		}
	}
	gauges := 0
	for name := range m {
		if strings.HasPrefix(name, "roofline_achieved_bandwidth_bytes{") {
			gauges++
		}
	}
	placedKernels := 0
	for fp, kernels := range last {
		placedKernels += len(kernels)
		for _, k := range kernels {
			lbl := `{kernel="` + k.Kernel + `",fp="` + fp + `"}`
			if m["roofline_achieved_bandwidth_bytes"+lbl] != k.AchievedBandwidthBytes ||
				m["roofline_achieved_flops"+lbl] != k.AchievedFlops ||
				m["roofline_pct_of_attainable"+lbl] != k.PctOfAttainable {
				t.Errorf("roofline gauges %s = %v B/s, %v flop/s, %v%%; last report %+v", lbl,
					m["roofline_achieved_bandwidth_bytes"+lbl], m["roofline_achieved_flops"+lbl],
					m["roofline_pct_of_attainable"+lbl], k)
			}
		}
	}
	if gauges != placedKernels {
		t.Errorf("%d roofline_achieved_bandwidth_bytes series, %d kernels placed", gauges, placedKernels)
	}
	if len(placed) > 0 {
		lastJob := placed[len(placed)-1]
		fp := records[lastJob.jobID].Matrix
		for _, ms := range roofRep.Matrices {
			if ms.Fingerprint != fp {
				continue
			}
			lbl := `{fp="` + fp[:12] + `"}`
			if m["roofline_low_bandwidth_solves"+lbl] != float64(ms.LowBandwidthSolves) ||
				m["roofline_baseline_bandwidth_bytes"+lbl] != ms.BaselineBandwidthBytes {
				t.Errorf("/roofline %s: low_bandwidth_solves %d baseline %v; /metrics %v %v", fp[:12], ms.LowBandwidthSolves,
					ms.BaselineBandwidthBytes, m["roofline_low_bandwidth_solves"+lbl], m["roofline_baseline_bandwidth_bytes"+lbl])
			}
			if !reflect.DeepEqual(ms.Latest.Kernels, lastJob.kernels) {
				t.Errorf("/roofline latest %+v, last placed report (job %s) %+v", ms.Latest.Kernels, lastJob.jobID, lastJob.kernels)
			}
		}
	}
	return m, st
}

// TestExportedNumbersReconcile drives cold, warm, evicting, queue-expired
// (504), rejected (429), held and timed-out jobs through a store-backed
// daemon, and cold plus batched jobs through a batching daemon, then
// reconciles every surface of each and pins the counts the scenario fixes.
func TestExportedNumbersReconcile(t *testing.T) {
	t.Run("admission", func(t *testing.T) {
		runs := t.TempDir()
		_, url, _ := newDurableServer(t, t.TempDir(), service.Options{
			Metrics: telemetry.NewRegistry(), RunsDir: runs,
			MaxInflight: 1, QueueCap: 1, CacheEntries: 1,
		})
		c := client.New(url)
		info, err := c.RegisterMatgen(t.Context(), "lap64x64", "")
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		fp := info.Fingerprint
		var answers []answer
		solve := func(req service.SolveRequest, headers map[string]string, code int) answer {
			t.Helper()
			a := post(t, url, req, headers)
			if a.code != code {
				t.Fatalf("solve %+v: HTTP %d %+v, want %d", req, a.code, a.errb, code)
			}
			answers = append(answers, a)
			return a
		}
		// Cold, warm, then a second key that evicts the first (one entry).
		for _, want := range []struct{ precond, cache string }{
			{"fsaie", service.CacheMiss}, {"fsaie", service.CacheHit}, {"fsai", service.CacheMiss},
		} {
			if a := solve(service.SolveRequest{Matrix: fp, Precond: want.precond}, nil, http.StatusOK); a.resp.Cache != want.cache {
				t.Fatalf("%s solve: cache %s, want %s", want.precond, a.resp.Cache, want.cache)
			}
		}

		// A held job owns the one slot, a job with a 1 s client deadline
		// waits in the one queue place and expires there (504), and a third
		// finds the queue full (429). The queue gauges agree mid-flight.
		jacobi := service.SolveRequest{Matrix: fp, Precond: "jacobi", MaxIter: 5}
		held, expired := make(chan answer, 1), make(chan answer, 1)
		go func() { r := jacobi; r.HoldMS = 3000; held <- post(t, url, r, nil) }()
		waitForInflight(t, c, 1)
		if q := queueAgrees(t, url); q.Inflight != 1 || q.Depth != 0 {
			t.Fatalf("slot held: queue %+v", q)
		}
		go func() { expired <- post(t, url, jacobi, map[string]string{service.HeaderDeadlineMS: "1000"}) }()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if st, err := c.Stats(t.Context()); err == nil && st.Queue.Depth == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the deadline job never queued")
			}
		}
		if q := queueAgrees(t, url); q.Inflight != 1 || q.Depth != 1 {
			t.Fatalf("slot held, one queued: queue %+v", q)
		}
		solve(jacobi, nil, http.StatusTooManyRequests)
		for _, a := range []answer{<-expired, <-held} {
			answers = append(answers, a)
		}
		if a := answers[len(answers)-2]; a.code != http.StatusGatewayTimeout {
			t.Fatalf("queued job past its deadline: HTTP %d %+v, want 504", a.code, a.errb)
		}
		if a := answers[len(answers)-1]; a.code != http.StatusOK || a.resp.Status != "max-iter" {
			t.Fatalf("held job: HTTP %d %+v", a.code, a.resp)
		}
		// Timed out in flight: the hold outlasts timeout_ms, so CG starts
		// cancelled.
		r := jacobi
		r.HoldMS, r.TimeoutMS = 5000, 200
		if a := solve(r, nil, http.StatusOK); a.resp.Status != "cancelled" {
			t.Fatalf("timed-out job: status %q, want cancelled", a.resp.Status)
		}

		m, st := reconcile(t, url, runs, answers)
		if want := (service.CacheStats{Entries: 1, Capacity: 1, Hits: 1, Misses: 2, Evictions: 1}); st.Cache != want {
			t.Errorf("cache %+v, want %+v", st.Cache, want)
		}
		// Five jobs were admitted; the 429 and the 504 never held a slot.
		if q := st.Queue; q.Rejected != 1 || q.Accepted != 5 || q.Completed != 5 || q.Depth != 0 || q.Inflight != 0 {
			t.Errorf("queue %+v, want 5 admitted and completed, 1 rejected, nothing queued or running", q)
		}
		if st.Matrices != 1 || st.Store == nil || st.Store.Matrices != 1 || st.Store.Factors != 1 || st.Store.Corrupt != 0 {
			t.Errorf("matrices %d, store %+v: want one matrix and the one cached factor", st.Matrices, st.Store)
		}
		for outcome, want := range map[string]float64{"converged": 3, "max-iter": 1, "cancelled": 1, "rejected": 2} {
			if got := m[`service_jobs{status="`+outcome+`"}`]; got != want {
				t.Errorf(`service_jobs{status=%q} = %v, want %v`, outcome, got, want)
			}
		}
	})

	t.Run("batched", func(t *testing.T) {
		runs := t.TempDir()
		s := service.New(service.Options{Workers: 2, Metrics: telemetry.NewRegistry(), RunsDir: runs,
			BatchWindow: 300 * time.Millisecond})
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(func() { hs.Close(); _ = s.Close() })
		info, err := client.New(hs.URL).RegisterMatgen(t.Context(), "lap64x64", "")
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		req := service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie"}
		// A cold solve runs alone; three concurrent warm ones share a batch,
		// and a lone warm one is a batch of one.
		answers := []answer{post(t, hs.URL, req, nil)}
		group := make([]answer, 3)
		var wg sync.WaitGroup
		for i := range group {
			wg.Add(1)
			go func(i int) { defer wg.Done(); group[i] = post(t, hs.URL, req, nil) }(i)
		}
		wg.Wait()
		answers = append(answers, group...)
		answers = append(answers, post(t, hs.URL, req, nil))
		for i, a := range answers {
			if a.code != http.StatusOK || a.resp.Status != "converged" {
				t.Fatalf("solve %d: HTTP %d %+v %+v", i, a.code, a.resp, a.errb)
			}
		}
		if b := answers[1].resp.Batch; b == nil || b.Size != 3 {
			t.Fatalf("concurrent warm solves: batch %+v, want one batch of 3", b)
		}

		m, st := reconcile(t, hs.URL, runs, answers)
		if m["batch_size_count"] != 2 || m["batch_size_sum"] != 4 {
			t.Errorf("batch_size_count %v, _sum %v; want 2 batches of 4 jobs", m["batch_size_count"], m["batch_size_sum"])
		}
		if last := answers[len(answers)-1].resp.Batch; m["batch_achieved_ai"] != last.AchievedAI || last.AchievedAI <= 0 {
			t.Errorf("batch_achieved_ai %v, last batch's achieved_ai %v", m["batch_achieved_ai"], last.AchievedAI)
		}
		// Five jobs in three groups: one lookup and one admission per group.
		if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
			t.Errorf("cache %+v: want one miss and one hit per batch", st.Cache)
		}
		if st.Queue.Accepted != 3 || st.Queue.Completed != 3 {
			t.Errorf("queue %+v: want 3 admission groups", st.Queue)
		}
	})
}

// TestSLOWithoutMetricsOption: a daemon built with no Options.Metrics (a
// library embedding, a cluster test shard) still measures its SLO
// latencies, so every /slo series that counts events has a p95.
func TestSLOWithoutMetricsOption(t *testing.T) {
	s := service.New(service.Options{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	info, err := client.New(hs.URL).RegisterMatgen(t.Context(), "lap64x64", "")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	for range 3 {
		if a := post(t, hs.URL, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsai"}, nil); a.code != http.StatusOK {
			t.Fatalf("solve: HTTP %d %+v", a.code, a.errb)
		}
	}
	var rep obs.SLOReport
	getJSON(t, hs.URL+"/slo", &rep)
	totals := map[string]int64{}
	for _, sr := range rep.Series {
		totals[sr.SLO] = sr.TotalEvents
		if sr.P95NS <= 0 {
			t.Errorf("%s: %d events, p95 %v ns", sr.SLO, sr.TotalEvents, sr.P95NS)
		}
	}
	if want := map[string]int64{obs.SLOColdSolve: 1, obs.SLOWarmSolve: 2, obs.SLOQueueWait: 3}; !reflect.DeepEqual(totals, want) {
		t.Errorf("/slo totals %v, want %v", totals, want)
	}
}
