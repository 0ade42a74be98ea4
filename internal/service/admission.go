package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// SaturatedError is returned by admission.acquire when both the concurrency
// slots and the waiting queue are full, and by the memory-degradation gate
// when it sheds a job. The HTTP layer maps it to 429 with a Retry-After
// header — the service sheds load instead of accepting unbounded work.
type SaturatedError struct {
	// RetryAfter is the server's backoff suggestion, derived from the
	// observed job duration and the current backlog.
	RetryAfter time.Duration
	// Shed names the memory-degradation state that shed the job; empty
	// when the admission queue was full.
	Shed string
}

func (e *SaturatedError) Error() string {
	if e.Shed != "" {
		return fmt.Sprintf("service: shedding load, memory state %q", e.Shed)
	}
	return fmt.Sprintf("service: queue saturated, retry after %s", e.RetryAfter)
}

// admission is the job-queue front door: at most maxInflight jobs run
// concurrently (sharing the internal/parallel worker pool between them —
// the pool runs one dispatch at a time and degrades extra concurrent
// kernels to inline execution, so more inflight jobs would oversubscribe
// cores without finishing anything sooner), at most queueCap more may wait
// for a slot, and everything beyond that is rejected immediately.
type admission struct {
	slots    chan struct{}
	queueCap int

	// waiting and inflight gate admission; the gauges publish them.
	waiting, inflight atomic.Int64
	depth, running    *telemetry.Gauge

	// accepted and completed count admission groups; no registry series
	// mirrors them. rejected is the service.jobs.rejected counter.
	accepted, completed atomic.Int64
	rejected            *telemetry.Counter

	// ewmaNS tracks recent job wall time (exponentially weighted) to derive
	// Retry-After suggestions proportional to the actual backlog drain rate.
	ewmaNS atomic.Int64
}

func newAdmission(maxInflight, queueCap int, reg *telemetry.Registry) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	reg.SetHelp("service_queue_depth", "solve jobs waiting for a concurrency slot")
	reg.SetHelp("service_jobs_inflight", "solve jobs currently holding a concurrency slot")
	reg.SetHelp("service_jobs_rejected", "solve jobs shed with 429 (queue saturated)")
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		queueCap: queueCap,
		depth:    reg.Gauge("service.queue.depth"),
		running:  reg.Gauge("service.jobs.inflight"),
		rejected: reg.Counter("service.jobs.rejected"),
	}
}

// acquire obtains a concurrency slot, waiting in the bounded queue when all
// slots are busy. It returns a release function, or a *SaturatedError when
// the queue is full, or ctx.Err() when the caller's context ends first.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	default:
	}
	if a.waiting.Add(1) > int64(a.queueCap) {
		a.waiting.Add(-1)
		a.rejected.Inc()
		return nil, &SaturatedError{RetryAfter: a.retryAfter()}
	}
	a.depth.Set(float64(a.waiting.Load()))
	defer func() {
		a.depth.Set(float64(a.waiting.Add(-1)))
	}()
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitted records a successful slot acquisition and returns its paired
// release.
func (a *admission) admitted() func() {
	a.accepted.Add(1)
	a.running.Set(float64(a.inflight.Add(1)))
	var once atomic.Bool
	return func() {
		if once.Swap(true) {
			return
		}
		<-a.slots
		a.completed.Add(1)
		a.running.Set(float64(a.inflight.Add(-1)))
	}
}

// observe feeds one finished job's wall time into the drain-rate estimate.
func (a *admission) observe(ns int64) {
	if ns <= 0 {
		return
	}
	for {
		old := a.ewmaNS.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/4 // EWMA with α = 1/4
		}
		if a.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter suggests a backoff: the time for the current backlog to drain
// at the observed per-job rate, clamped to [1s, 60s].
func (a *admission) retryAfter() time.Duration {
	avg := a.ewmaNS.Load()
	if avg <= 0 {
		return time.Second
	}
	backlog := a.waiting.Load() + a.inflight.Load() + 1
	d := time.Duration(avg * backlog / int64(cap(a.slots)))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

func (a *admission) stats() QueueStats {
	return QueueStats{
		Depth:       int(a.waiting.Load()),
		Capacity:    a.queueCap,
		Inflight:    int(a.inflight.Load()),
		MaxInflight: cap(a.slots),
		Accepted:    a.accepted.Load(),
		Rejected:    a.rejected.Value(),
		Completed:   a.completed.Load(),
	}
}
