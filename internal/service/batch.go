package service

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	fsai "repro/internal/core"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Every solve job takes one path: submit → admit → execute → finish. The
// batcher is the submit step. It groups concurrent warm-cache solves on the
// same operator into one block solve: a groupable job holds for up to
// Options.BatchWindow, and every job that arrives in that window with the
// same (fingerprint, setup options, tol, max_iter) joins the group. Every
// other job — and every job when the window is 0 — is a group of one that
// launches immediately on the submitting goroutine. A group executes over
// one admission slot as a single krylov.SolveBlock — one matrix stream
// serving all columns, which is where the per-RHS speedup of batching comes
// from (see docs/performance.md, "Batched solving").
//
// The grouping changes scheduling, never results: every column of a block
// solve is bit-identical to the one-column solve of the same job, each job
// keeps its own trace, idempotency entry, job-log record and run report,
// and a column whose client deadline expires deflates out of the block
// without poisoning the other columns.

// job is one solve request on its way through the job path. The handler
// goroutine owns it and blocks on done while the group runs; the runner
// writes ji and the tracer only in that window. The spans are the job's
// clock: span is the "job" stage (enqueue to finish, TotalNS), window the
// batch window (WindowWaitNS; nil outside a window).
type job struct {
	id         string
	req        *SolveRequest
	rm         *RegisteredMatrix
	ji         *JobInfo
	tr         *telemetry.Tracer
	tc         trace.Context
	root       *telemetry.Span
	span       *telemetry.Span
	window     *telemetry.Span
	parentSpan string
	logw       *slog.Logger
	// reqCtx carries the client's propagated deadline and disconnect;
	// timeout is the in-flight budget applied once the job is admitted
	// (min with reqCtx's own deadline).
	reqCtx         context.Context
	clientDeadline bool
	timeout        time.Duration
	done           chan jobOutcome
}

// jobOutcome is what the group runner hands back to each waiting job.
type jobOutcome struct {
	resp *SolveResponse
	err  error // resp is nil
	// rejected marks an admission failure (HTTP 429/504/503) as opposed to
	// an execution failure such as a preconditioner build error (HTTP 500).
	rejected bool
}

// group is the unit of admission and execution: one job, or a batch of
// jobs that share one block solve.
type group struct {
	// id is the batch id of a group formed in a window; "" for a group of
	// one that never waited in a window.
	id   string
	jobs []*job
	// colCtx holds each job's in-flight context (client deadline and
	// timeout, applied from admission).
	colCtx []context.Context
	// achievedAI is the batch's spmm arithmetic intensity, once placed on
	// the roofline.
	achievedAI float64
}

func (g *group) batched() bool { return g.id != "" }

type collecting struct {
	members []*job
	timer   *time.Timer
}

// batcher collects groupable jobs into per-key groups and launches each
// group after the window (or when it reaches max members); everything else
// launches alone.
type batcher struct {
	s      *Server
	window time.Duration
	max    int

	mu     sync.Mutex
	groups map[string]*collecting
}

func newBatcher(s *Server, window time.Duration, max int) *batcher {
	return &batcher{s: s, window: window, max: max, groups: map[string]*collecting{}}
}

// batchKey extends the preconditioner cache key with the solve knobs: two
// jobs may share a cached factor but still need separate solves when their
// tolerances differ.
func batchKey(fingerprint string, req *SolveRequest) string {
	return fmt.Sprintf("%s|tol=%g|maxiter=%d", PrecondKey(fingerprint, req), req.Tol, req.MaxIter)
}

// groupable reports whether req may wait in a batch window: windows are
// open, and the job is a plain FSAI-family solve whose factor is already
// resident (warm). Cold solves would serialize the group behind a setup;
// a resilient solve's recovery would have to run per column inside the
// block solve; HoldMS jobs are admission-control drills and must occupy
// their own slot.
func (b *batcher) groupable(req *SolveRequest, rm *RegisteredMatrix) bool {
	if b.window <= 0 || req.Resilient || req.HoldMS > 0 || req.SetupOnly {
		return false
	}
	return fsai.IsFamily(req.Precond) && b.s.cache.Contains(PrecondKey(rm.Info.Fingerprint, req))
}

// submit hands j to its group. A job that cannot group runs at once as a
// group of one on the calling goroutine. A groupable job opens its
// batch-window span and joins (or opens, arming the window timer) the
// collecting group of its key; the group launches when the timer fires or
// when it reaches max members, whichever comes first. Either way the
// outcome arrives on j.done.
func (b *batcher) submit(j *job) {
	if !b.groupable(j.req, j.rm) {
		b.run(&group{jobs: []*job{j}})
		return
	}
	// The window span covers submit-to-launch; launch ends it.
	j.window = j.tr.StartSpan("batch-window")
	key := batchKey(j.rm.Info.Fingerprint, j.req)
	b.mu.Lock()
	c := b.groups[key]
	if c == nil {
		c = &collecting{}
		b.groups[key] = c
		c.timer = time.AfterFunc(b.window, func() { b.launch(key, c) })
	}
	c.members = append(c.members, j)
	full := len(c.members) >= b.max
	b.mu.Unlock()
	if full {
		b.launch(key, c)
	}
}

// launch removes the collecting group from the set, ends its members'
// batch-window spans and runs it. Guarded so the window timer and a
// size-triggered launch cannot both run the group.
func (b *batcher) launch(key string, c *collecting) {
	b.mu.Lock()
	if b.groups[key] != c {
		b.mu.Unlock()
		return
	}
	delete(b.groups, key)
	b.mu.Unlock()
	c.timer.Stop()
	for _, j := range c.members {
		j.window.End()
	}
	b.run(&group{id: fmt.Sprintf("batch-%06d", b.s.seq.Add(1)), jobs: c.members})
}

// mergedDone returns a context cancelled once every member context is done:
// a batch's admission wait gives up only when no caller is left waiting.
func mergedDone(ctxs []context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(ctxs))
	var mu sync.Mutex
	for _, c := range ctxs {
		go func(c context.Context) {
			select {
			case <-c.Done():
			case <-ctx.Done():
			}
			mu.Lock()
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				cancel()
			}
		}(c)
	}
	return ctx, cancel
}

// run admits and executes one group and hands every member its outcome.
// The group takes one admission slot. A group of one waits and runs under
// its own job's context and pprof labels; a batch waits until its last
// caller gives up and runs under the batch id, with kernel-level spans
// (precond-cache, setup phases, cg-solve) on the first member's trace.
func (b *batcher) run(g *group) {
	s := b.s
	lead := g.jobs[0]
	fp := lead.rm.Info.Fingerprint
	labelID, admCtx := lead.id, lead.reqCtx
	if g.batched() {
		ctxs := make([]context.Context, len(g.jobs))
		for i, j := range g.jobs {
			ctxs[i] = j.reqCtx
		}
		merged, cancel := mergedDone(ctxs)
		defer cancel()
		labelID, admCtx = g.id, merged
	}

	// The admission wait runs under the pprof labels with phase=admission,
	// so a captured CPU window shows queueing as its own attributed slice,
	// distinct from setup and CG time.
	admSpans := make([]*telemetry.Span, len(g.jobs))
	for i, j := range g.jobs {
		admSpans[i] = j.tr.StartSpan("admission-wait")
	}
	var (
		release func()
		err     error
	)
	prof.Do(admCtx, func(lctx context.Context) {
		release, err = s.adm.acquire(lctx)
	}, prof.LabelJobID, labelID, prof.LabelTraceID, lead.tc.TraceID,
		prof.LabelFingerprint, shortFP(fp),
		prof.LabelPhase, prof.PhaseAdmission)
	for _, sp := range admSpans {
		sp.End()
	}
	if err != nil {
		if g.batched() {
			s.log.Warn("batch admission failed", "batch_id", g.id, "jobs", len(g.jobs), "error", err.Error())
		}
		for _, j := range g.jobs {
			j.done <- jobOutcome{err: err, rejected: true}
		}
		return
	}
	defer release()

	g.colCtx = make([]context.Context, len(g.jobs))
	for i, j := range g.jobs {
		j.ji.QueueWaitNS = (j.window.Duration() + admSpans[i].Duration()).Nanoseconds()
		j.ji.State = JobRunning
		s.jobs.put(*j.ji)
		s.reg.Histogram("service.job.queue_wait_ns", telemetry.ExpBuckets(1e4, 4, 12)).
			Observe(float64(j.ji.QueueWaitNS))
		// j.reqCtx already carries the client's propagated deadline (when
		// sent), so the in-flight budget is min(client deadline, timeout):
		// whichever fires first cancels CG via krylov's Ctx path.
		ctx, cancel := context.WithTimeout(j.reqCtx, j.timeout)
		defer cancel()
		g.colCtx[i] = ctx
	}
	// Everything below reads the identifiers and the span tracer from the
	// context — no new parameters through cache/krylov. A batch's context
	// only ends when no caller is left; its columns end on their own.
	base := g.colCtx[0]
	if g.batched() {
		base = admCtx
	}
	ctx := trace.NewContext(base, lead.tc, lead.tr)

	if lead.req.HoldMS > 0 {
		// Admission-control drill: occupy the slot without burning CPU.
		holdSpan := lead.tr.StartSpan("hold")
		hold := time.NewTimer(time.Duration(lead.req.HoldMS) * time.Millisecond)
		select {
		case <-hold.C:
		case <-ctx.Done():
			hold.Stop()
		}
		holdSpan.End()
	}
	// Batch members get a batched-solve span; for a group of one the span
	// stays nil, which every span method accepts as a no-op.
	solveSpans := make([]*telemetry.Span, len(g.jobs))
	if g.batched() {
		for i, j := range g.jobs {
			sp := j.tr.StartSpan("batched-solve")
			sp.SetAttr("batch_id", g.id)
			sp.SetAttr("batch_size", fmt.Sprint(len(g.jobs)))
			sp.SetAttr("column", fmt.Sprint(i))
			solveSpans[i] = sp
		}
	}

	// The whole body carries job_id/trace_id/fingerprint pprof labels;
	// setup and CG add their phase labels underneath (internal/core,
	// internal/krylov), and the kernel pool workers adopt them per dispatch.
	var resps []*SolveResponse
	prof.WithJobLabels(ctx, labelID, lead.tc.TraceID, shortFP(fp), func(lctx context.Context) {
		resps, err = s.execute(lctx, g)
	})
	// Free the slot before any caller hears back, so a client holding its
	// answer never sees its job still in flight.
	release()
	for i, j := range g.jobs {
		out, outcome := jobOutcome{err: err}, JobFailed
		if err == nil {
			out, outcome = jobOutcome{resp: resps[i]}, resps[i].Status
			solveSpans[i].SetAttr("cache", resps[i].Cache)
		}
		solveSpans[i].SetAttr("outcome", outcome)
		solveSpans[i].End()
		j.done <- out
	}
}
