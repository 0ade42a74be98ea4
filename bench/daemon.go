package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// conns is the number of client connections, one per CPU of the host the
// benchmark was sized on.
const conns = 2

// daemonNominal is the reference pass time (hostRef.nominal) over the hot
// matrices on the sizing host. refSlice is how long the closed loop runs
// between two reference passes.
const (
	daemonNominal = 90 * time.Microsecond
	refSlice      = 500 * time.Millisecond
)

// hotMatrices are the matrices of the warm keys, solved with the daemon's
// default preconditioner (FSAIE(full), filter 0.01, 64-byte lines).
var hotMatrices = []string{"lap64x64", "jump56x56-b4-j1e4", "aniso56x56-e0.001", "elas28x28-s100"}

// solveKey is one preconditioner-cache key: a matrix and the extension
// filter, where 0 selects the daemon's default and < 0 means no filter.
type solveKey struct {
	matrix string
	filter float64
}

// coldKeys are the cold keys of daemon-mixed: QuickSuite without
// circuit500-d5 × filter {0.001, 0.1, none} at the daemon's 64-byte line,
// 27 keys. A key comes back only after the 26 others have passed through
// the 12 cache entries the hot keys leave free, so every cold request
// misses. Wider lines and the circuit graph are left out because their
// setups take 0.1–3.4 s against a median of 35 ms, which left a run's tail
// to how a few such requests happened to overlap.
func coldKeys() []solveKey {
	var keys []solveKey
	for _, s := range matgen.QuickSuite() {
		if s.Name == "circuit500-d5" {
			continue
		}
		for _, f := range []float64{0.001, 0.1, -1} {
			keys = append(keys, solveKey{matrix: s.Name, filter: f})
		}
	}
	return keys
}

// fsaid is one running daemon.
type fsaid struct {
	cmd     *exec.Cmd
	base    string
	hc      *http.Client
	drained chan struct{} // closed once the daemon's stderr reaches EOF
}

// startFsaid launches "fsaid serve" on a free local port and waits until
// it announces its address.
func startFsaid(bin string, args ...string) (*fsaid, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-listen", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &fsaid{cmd: cmd, drained: make(chan struct{}), hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, "fsaid listening") {
				if _, a, ok := strings.Cut(line, "addr="); ok {
					addr <- strings.Fields(a)[0]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep draining after an overlong line
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case <-d.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("fsaid exited before listening: %v", cmd.ProcessState)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("fsaid did not announce its address within 30s")
	}
}

// stop shuts the daemon down with SIGTERM, killing it if it has not
// exited after 15 s, and waits for it.
func (d *fsaid) stop() {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

func (d *fsaid) pid() int { return d.cmd.Process.Pid }

// exchange is one solve request as the client saw it. Its four stages
// partition the client's wall time.
type exchange struct {
	encode, ttfb, read, decode time.Duration
	reqBytes, respBytes        int
	resp                       service.SolveResponse
}

func (e *exchange) wall() time.Duration { return e.encode + e.ttfb + e.read + e.decode }

// solve posts one solve request and times its stages: JSON encoding, the
// round trip until the response headers arrive, reading the body, and
// decoding it. With a tracer each stage is also a span.
func (d *fsaid) solve(req *service.SolveRequest, tr *telemetry.Tracer) (*exchange, error) {
	ex := &exchange{}
	stage := func(name string, dst *time.Duration, fn func() error) error {
		span := tr.StartSpan(name)
		t := time.Now()
		err := fn()
		*dst = time.Since(t)
		span.End()
		return err
	}
	var body, raw []byte
	var resp *http.Response
	err := stage("client.encode", &ex.encode, func() (err error) {
		body, err = json.Marshal(req)
		return err
	})
	if err != nil {
		return nil, err
	}
	ex.reqBytes = len(body)
	err = stage("client.http", &ex.ttfb, func() error {
		hreq, err := http.NewRequest(http.MethodPost, d.base+"/api/v1/solve", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err = d.hc.Do(hreq)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage("client.read", &ex.read, func() (err error) {
		defer resp.Body.Close()
		raw, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	ex.respBytes = len(raw)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := stage("client.decode", &ex.decode, func() error { return json.Unmarshal(raw, &ex.resp) }); err != nil {
		return nil, err
	}
	return ex, nil
}

// sample is one request of a daemon workload. Its latency is the client's
// wall time, from encoding the request to decoding the reply.
type sample struct {
	cold  bool
	ok    bool
	ex    *exchange
	scale float64 // host-speed correction of the slice the request ran in
}

// latency is the sample's client wall time in ms, corrected for host speed.
func (s sample) latency() float64 { return ms(s.ex.wall()) * s.scale }

// daemonRun holds one daemon workload's inputs.
type daemonRun struct {
	cfg      config
	rep      *report
	mixed    bool
	matrices map[string]*sparse.CSR // matgen name → the matrix, generated locally
	fp       map[string]string      // matgen name → fingerprint
	hot      []solveKey
	ref      *hostRef
}

func daemonWarm(cfg config, rep *report) error  { return runDaemon(cfg, rep, false) }
func daemonMixed(cfg config, rep *report) error { return runDaemon(cfg, rep, true) }

// runDaemon drives a real fsaid with a closed loop over conns connections:
// warm solves on the hot keys for daemon-warm, and for daemon-mixed a
// cycle that is 90% warm and 10% cold, against a daemon with a durable
// store. Open loops measured on a 2-vCPU host at 25–40 req/s varied
// 20–45% from run to run in median and tail, because the idle CPUs between
// requests woke up at varying speed; the closed loop keeps them busy.
func runDaemon(cfg config, rep *report, mixed bool) error {
	if cfg.fsaid == "" {
		return fmt.Errorf("the daemon workloads need -fsaid")
	}
	dr := &daemonRun{cfg: cfg, rep: rep, mixed: mixed, matrices: map[string]*sparse.CSR{}, fp: map[string]string{}}
	for _, n := range hotMatrices {
		dr.hot = append(dr.hot, solveKey{matrix: n})
	}
	keys := dr.hot
	if mixed {
		keys = append(coldKeys(), keys...)
	}
	for _, k := range keys {
		if dr.matrices[k.matrix] == nil {
			s, ok := matgen.ByName(k.matrix)
			if !ok {
				return fmt.Errorf("matgen has no %s", k.matrix)
			}
			dr.matrices[k.matrix] = s.Generate()
		}
	}
	if !cfg.trace {
		var hotMats []*sparse.CSR
		for _, n := range hotMatrices {
			hotMats = append(hotMats, dr.matrices[n])
		}
		dr.ref = newHostRef(conns, daemonNominal, hotMats...)
	} else {
		var probs []*problem
		for _, n := range hotMatrices {
			probs = append(probs, &problem{name: n + "/fsaie", a: dr.matrices[n], opts: variantOptions(fsai.VariantFull, conns)})
		}
		probeLayers(rep, probs, conns, cfg)
	}

	defer os.RemoveAll(dr.dataDir(-1)) // runs after the daemon's stop below
	var d *fsaid
	var setups []float64
	iters := -1
	for i := 0; i < cfg.setupReps; i++ {
		if d != nil {
			d.stop()
		}
		s := dr.ref.scale()
		var err error
		var took time.Duration
		var it int
		if d, took, it, err = dr.setUp(i); err != nil {
			return err
		}
		setups = append(setups, took.Seconds()*s)
		if iters >= 0 && it != iters {
			rep.incorrect(fmt.Sprintf("PCG iterations of the priming solves changed between launches: %d then %d", iters, it))
		}
		iters = it
	}
	defer d.stop()
	rep.set("setup_s", "s", median(setups))
	rep.set("pcg_iterations", "count", float64(iters))

	dur := cfg.duration()
	if cfg.trace {
		dur /= 2
	}
	before, err := d.snapshot()
	if err != nil {
		return err
	}
	samples, wall := dr.measure(d, dur, 0, nil)
	after, err := d.snapshot()
	if err != nil {
		return err
	}
	if cfg.trace {
		var tracers [conns]*telemetry.Tracer
		for c := range tracers {
			tracers[c] = telemetry.NewTracer(nil)
		}
		traced, _ := dr.measure(d, dur, 1<<30, tracers[:])
		for _, tr := range tracers {
			rep.spans = append(rep.spans, tr.Report()...)
		}
		rep.set("bench.trace_overhead_pct", "%", 100*(latencyP50(traced)/latencyP50(samples)-1))
	}
	hwm, err := procStatus(d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	rep.set("peak_rss_mib", "MiB", float64(hwm)/1024)
	return dr.metrics(samples, wall, before, after)
}

// serverSnap is the daemon's counters at one instant.
type serverSnap struct {
	stats service.Stats
	cpu   time.Duration
}

func (d *fsaid) snapshot() (serverSnap, error) {
	c := client.New(d.base)
	c.SetHTTPClient(d.hc)
	st, err := c.Stats(context.Background())
	if err != nil {
		return serverSnap{}, fmt.Errorf("stats: %w", err)
	}
	cpu, err := procCPU(d.pid())
	return serverSnap{st, cpu}, err
}

// dataDir is the store directory of launch i, or with i < 0 their parent.
func (dr *daemonRun) dataDir(i int) string {
	dir := filepath.Join(dr.cfg.work, "data")
	if i < 0 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprint(i))
}

// setUp launches a daemon, registers the workload's matrices and primes the
// hot keys with one solve each, returning the time all of that took and the
// priming solves' PCG iteration total. Each priming solve uses its matrix's
// fixed right-hand side, so that total repeats on every launch and seed.
func (dr *daemonRun) setUp(i int) (*fsaid, time.Duration, int, error) {
	var args []string
	if dr.mixed {
		dir := dr.dataDir(i)
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, 0, err
		}
		args = append(args, "-data-dir", dir)
	}
	t0 := time.Now()
	d, err := startFsaid(dr.cfg.fsaid, args...)
	if err != nil {
		return nil, 0, 0, err
	}
	c := client.New(d.base)
	c.SetHTTPClient(d.hc)
	for name, a := range dr.matrices {
		info, err := c.RegisterMatgen(context.Background(), name, "")
		if err != nil {
			d.stop()
			return nil, 0, 0, fmt.Errorf("register %s: %w", name, err)
		}
		if fp := a.Fingerprint(); info.Fingerprint != fp {
			d.stop()
			return nil, 0, 0, fmt.Errorf("register %s: daemon fingerprint %s, local %s", name, info.Fingerprint, fp)
		}
		dr.fp[name] = info.Fingerprint
	}
	iters := 0
	for k, key := range dr.hot {
		s := dr.send(d, key, -1-k, fixedRHS(dr.matrices[key.matrix]), nil)
		if !s.ok {
			d.stop()
			return nil, 0, 0, fmt.Errorf("priming %s failed", key.matrix)
		}
		iters += s.ex.resp.Iterations
	}
	return d, time.Since(t0), iters, nil
}

// requestRHS is request number i's right-hand side for key.
func (dr *daemonRun) requestRHS(key solveKey, i int) []float64 {
	return seededRHS(rand.New(rand.NewSource(dr.cfg.seed*1_000_003+int64(i))), dr.matrices[key.matrix])
}

// send solves key for b as request number i, verifies the answer and
// records the outcome.
func (dr *daemonRun) send(d *fsaid, key solveKey, i int, b []float64, tr *telemetry.Tracer) sample {
	a := dr.matrices[key.matrix]
	req := &service.SolveRequest{Matrix: dr.fp[key.matrix], Precond: "fsaie", Filter: key.filter,
		RHS: b, ReturnSolution: true}
	span := tr.StartSpan("request")
	span.SetAttr("request", fmt.Sprint(i))
	span.SetAttr("matrix", key.matrix)
	ex, err := d.solve(req, tr)
	if err == nil {
		span.SetAttr("cache", ex.resp.Cache)
		span.SetAttr("server_total_ns", fmt.Sprint(ex.resp.TotalNS))
	}
	span.End()
	op := fmt.Sprintf("request %d (%s)", i, key.matrix)
	if err != nil {
		dr.rep.outcome(op, err.Error(), false)
		return sample{}
	}
	why := checkAnswer(a, ex.resp.X, b, ex.resp.Converged)
	dr.rep.outcome(op, why, why != "")
	return sample{ok: why == "", ex: ex}
}

// measure runs the workload's closed loop for dur and returns its samples
// and the seconds the loop took, corrected for host speed. The loop runs in
// slices of refSlice with a reference pass of the host before each.
// Request numbers start at first; tracers, when given, hold one tracer per
// connection.
func (dr *daemonRun) measure(d *fsaid, dur time.Duration, first int, tracers []*telemetry.Tracer) ([]sample, float64) {
	seq := dr.hot
	var cold []bool
	if dr.mixed {
		seq, cold = mixedSequence(rand.New(rand.NewSource(dr.cfg.seed)), dr.hot)
	}
	var all []sample
	var wall float64
	start := time.Now()
	for len(all) == 0 || time.Since(start) < dur {
		scale := dr.ref.scale()
		done := len(all)
		perConn := make([][]sample, conns)
		took := closedLoop(conns, max(min(refSlice, dur-time.Since(start)), time.Millisecond), func(c, i int) {
			var tr *telemetry.Tracer
			if tracers != nil {
				tr = tracers[c]
			}
			k := done + i
			key := seq[k%len(seq)]
			s := dr.send(d, key, first+k, dr.requestRHS(key, first+k), tr)
			s.cold, s.scale = cold != nil && cold[k%len(seq)], scale
			perConn[c] = append(perConn[c], s)
		})
		wall += took.Seconds() * scale
		for _, s := range perConn {
			all = append(all, s...)
		}
	}
	return all, wall
}

// mixedSequence returns the request cycle of daemon-mixed: ten slots per
// cold key, each cold key in one slot at a seeded random position and a
// random hot key in every other slot. cold marks the cold slots.
func mixedSequence(rng *rand.Rand, hot []solveKey) (seq []solveKey, cold []bool) {
	coldSet := coldKeys()
	n := 10 * len(coldSet)
	seq, cold = make([]solveKey, n), make([]bool, n)
	for k, i := range rng.Perm(n)[:len(coldSet)] {
		seq[i], cold[i] = coldSet[k], true
	}
	for i := range seq {
		if !cold[i] {
			seq[i] = hot[rng.Intn(len(hot))]
		}
	}
	return seq, cold
}

func latencyP50(samples []sample) float64 {
	var xs []float64
	for _, s := range samples {
		if s.ok {
			xs = append(xs, s.latency())
		}
	}
	return median(xs)
}

// metrics reports the end-to-end metrics and the service and client
// breakdown of the untraced samples.
func (dr *daemonRun) metrics(samples []sample, wall float64, before, after serverSnap) error {
	rep := dr.rep
	var all, warm, cold, outside, scales []float64
	col := map[string][]float64{}
	ok := 0
	for _, s := range samples {
		if !s.ok {
			continue
		}
		ok++
		r, w := s.ex.resp, s.ex.wall()
		all = append(all, s.latency())
		scales = append(scales, s.scale)
		if s.cold {
			cold = append(cold, s.latency())
			if r.Cache == service.CacheMiss {
				col["service.setup_p50_ms"] = append(col["service.setup_p50_ms"], float64(r.SetupNS)/1e6)
			}
		} else {
			warm = append(warm, s.latency())
		}
		outside = append(outside, 100*(1-float64(r.SetupNS+r.SolveNS)/float64(w)))
		col["service.queue_wait_ms"] = append(col["service.queue_wait_ms"], float64(r.QueueWaitNS)/1e6)
		col["service.solve_p50_ms"] = append(col["service.solve_p50_ms"], float64(r.SolveNS)/1e6)
		col["service.total_p50_ms"] = append(col["service.total_p50_ms"], float64(r.TotalNS)/1e6)
		col["service.outside_total_p50_ms"] = append(col["service.outside_total_p50_ms"], ms(w)-float64(r.TotalNS)/1e6)
		col["client.encode_us"] = append(col["client.encode_us"], us(s.ex.encode))
		col["client.ttfb_ms"] = append(col["client.ttfb_ms"], ms(s.ex.ttfb))
		col["client.read_us"] = append(col["client.read_us"], us(s.ex.read))
		col["client.decode_us"] = append(col["client.decode_us"], us(s.ex.decode))
		col["client.wall_ms"] = append(col["client.wall_ms"], ms(w))
		col["http.req_kib"] = append(col["http.req_kib"], float64(s.ex.reqBytes)/1024)
		col["http.resp_kib"] = append(col["http.resp_kib"], float64(s.ex.respBytes)/1024)
	}
	if ok == 0 {
		return fmt.Errorf("no request succeeded")
	}
	rep.set("latency_p50_ms", "ms", median(all))
	// Too short a run has no tail; an untraced one then fails when it
	// reports latency_tail_ms.
	if p, err := tailPercentile(len(all)); err == nil {
		rep.set("latency_tail_ms", "ms", percentile(all, float64(p)))
		rep.set("latency_tail_percentile", "count", float64(p))
	}
	rep.set("requests", "count", float64(len(samples)))
	rep.set("host.speed_scale", "x", median(scales))
	rep.set("solves_per_s", "1/s", float64(ok)/wall)
	classTail := func(name string, xs []float64) {
		rep.set(name+"_p50_ms", "ms", median(xs))
		if p, err := tailPercentile(len(xs)); err == nil {
			rep.set(fmt.Sprintf("%s_p%d_ms", name, p), "ms", percentile(xs, float64(p)))
		}
	}
	classTail("warm", warm)
	if dr.mixed {
		classTail("cold", cold)
	}

	rep.set("bench.outside_solver_pct", "%", median(outside))
	// Client stages are means, so they add up to the mean wall time.
	for _, m := range []metricDef{{"client.encode_us", "us"}, {"client.ttfb_ms", "ms"}, {"client.read_us", "us"}, {"client.decode_us", "us"}, {"client.wall_ms", "ms"}} {
		rep.set(m.Name, m.Unit, mean(col[m.Name]))
	}
	rep.set("service.queue_wait_p50_ms", "ms", median(col["service.queue_wait_ms"]))
	rep.set("service.queue_wait_p99_ms", "ms", percentile(col["service.queue_wait_ms"], 99))
	for _, n := range []string{"service.solve_p50_ms", "service.total_p50_ms", "service.outside_total_p50_ms", "service.setup_p50_ms"} {
		if len(col[n]) > 0 {
			rep.set(n, "ms", median(col[n]))
		}
	}
	rep.set("http.req_kib", "KiB", median(col["http.req_kib"]))
	rep.set("http.resp_kib", "KiB", median(col["http.resp_kib"]))
	// The daemon's own counters over the measured window.
	b, a := before.stats, after.stats
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	rep.set("service.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	rep.set("service.cache_evictions", "count", float64(a.Cache.Evictions-b.Cache.Evictions))
	rep.set("service.rejected", "count", float64(a.Queue.Rejected-b.Queue.Rejected))
	if a.Store != nil {
		rep.set("store.bytes", "MiB", float64(a.Store.Bytes)/(1<<20))
		rep.set("store.factors", "count", float64(a.Store.Factors))
	}
	rep.set("service.cpu_ms_per_req", "ms", ms(after.cpu-before.cpu)/float64(len(samples)))
	return nil
}
