package main

import (
	"fmt"
	"math/rand"
	"time"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Reference pass times (hostRef.nominal) of the library workloads on the
// sizing host.
const (
	suiteColdNominal = 300 * time.Microsecond
	largeWarmNominal = 1400 * time.Microsecond
)

// op is one timed operation of a library workload: an optional
// preconditioner build, then one PCG solve.
type op struct {
	setup, solve, wall time.Duration
	scale              float64 // host-speed correction of the operation's round
}

// tts is the operation's time to solution.
func (o op) tts() time.Duration { return o.setup + o.solve }

// library is a library workload's problems and what its rounds measured.
// A round solves every problem once; ops[j] holds problem j's operations.
type library struct {
	probs   []*problem
	cold    bool       // build the preconditioner in every operation
	workers int        // PCG and kernel parallelism
	rng     *rand.Rand // fresh right-hand sides; nil repeats each problem's own
	ref     *hostRef
	ops     [][]op
	iters   []int   // PCG iterations per round
	rounds  int     // rounds run
	wall    float64 // seconds the rounds took, corrected for host speed
}

func variantOptions(v fsai.Variant, workers int) fsai.Options {
	o := fsai.DefaultOptions()
	o.Variant, o.Workers = v, workers
	return o
}

// suiteCold builds each preconditioner and solves once, on all
// QuickSuite matrices × {FSAI, FSAIE(full)}, single-threaded. Every round
// repeats the same right-hand sides, so its PCG iteration total must
// repeat exactly.
func suiteCold(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	lib := &library{cold: true, workers: 1}
	var mats []*sparse.CSR
	for _, s := range matgen.QuickSuite() {
		a := s.Generate()
		mats = append(mats, a)
		b := seededRHS(rng, a)
		for _, v := range []fsai.Variant{fsai.VariantFSAI, fsai.VariantFull} {
			lib.probs = append(lib.probs, &problem{name: s.Name + "/" + v.String(), a: a, opts: variantOptions(v, 1), b: b})
		}
	}
	if !cfg.trace {
		lib.ref = newHostRef(1, suiteColdNominal, mats...)
	}
	fixedIterations(rep, lib.probs, lib.workers)
	lib = lib.measure(cfg, rep)
	for _, it := range lib.iters {
		if it != lib.iters[0] {
			rep.incorrect(fmt.Sprintf("PCG iteration total changed between rounds with the same inputs: %d then %d", lib.iters[0], it))
			break
		}
	}
	lib.metrics(rep, lib.sumOfMedians(func(o op) time.Duration { return o.setup }).Seconds())
	return nil
}

// largeWarm builds FSAI and FSAIE(full) factors of two matrices whose
// working sets exceed the per-core L2 several times, then runs warm solves
// with fresh right-hand sides on two workers.
func largeWarm(cfg config, rep *report) error {
	const workers = 2
	lib := &library{workers: workers, rng: rand.New(rand.NewSource(cfg.seed))}
	var mats []*sparse.CSR
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"lap3d-48", matgen.Laplace3D(48, 48, 48)},
		{"jump384-b8-j1e3", matgen.JumpCoefficient2D(384, 384, 8, 1e3, 201)},
	} {
		mats = append(mats, m.a)
		for _, v := range []fsai.Variant{fsai.VariantFSAI, fsai.VariantFull} {
			lib.probs = append(lib.probs, &problem{name: m.name + "/" + v.String(), a: m.a, opts: variantOptions(v, workers)})
		}
	}
	if !cfg.trace {
		lib.ref = newHostRef(workers, largeWarmNominal, mats...)
	}
	var setup time.Duration
	for _, pr := range lib.probs {
		var builds []float64
		for i := 0; i < cfg.setupReps; i++ {
			s := lib.ref.scale()
			t0 := time.Now()
			p, err := fsai.Compute(pr.a, pr.opts)
			builds = append(builds, float64(time.Since(t0))*s)
			if err != nil {
				return fmt.Errorf("set-up of %s: %w", pr.name, err)
			}
			pr.p = p
		}
		setup += time.Duration(median(builds))
	}
	fixedIterations(rep, lib.probs, lib.workers)
	lib.measure(cfg, rep).metrics(rep, setup.Seconds())
	return nil
}

// fixedIterations solves every problem once for a right-hand side that
// depends on its matrix alone, building the preconditioner first where the
// problem has none, and reports the PCG iteration total as pcg_iterations.
// With the reduction order fixed by the worker count, that total is the
// same on every run and every seed until the numerics change.
func fixedIterations(rep *report, probs []*problem, workers int) {
	total := 0
	for _, pr := range probs {
		p := pr.p
		if p == nil {
			var err error
			if p, err = fsai.Compute(pr.a, pr.opts); err != nil {
				rep.outcome(pr.name, "setup: "+err.Error(), false)
				continue
			}
		}
		b := fixedRHS(pr.a)
		x := make([]float64, pr.a.Rows)
		so := krylov.DefaultOptions()
		so.Workers = workers
		res := krylov.Solve(pr.a, x, b, p, so)
		total += res.Iterations
		why := checkAnswer(pr.a, x, b, res.Converged)
		rep.outcome(pr.name+" (fixed right-hand side)", why, why != "")
	}
	rep.set("pcg_iterations", "count", float64(total))
}

// measure runs rounds for the measured time and returns the library
// holding them. A traced run first probes the layers, then splits the time
// between an untraced and a traced copy of the loop, reports the
// difference as the tracing overhead, and returns the untraced copy.
func (l *library) measure(cfg config, rep *report) *library {
	if !cfg.trace {
		l.runFor(cfg.duration(), nil, rep)
		return l
	}
	probeLayers(rep, l.probs, l.workers, cfg)
	untraced, traced := *l, *l
	untraced.runFor(cfg.duration()/2, nil, rep)
	tr := telemetry.NewTracer(nil)
	traced.runFor(cfg.duration()/2, tr, rep)
	rep.spans = append(rep.spans, tr.Report()...)
	tts := float64(untraced.sumOfMedians(op.tts))
	rep.set("bench.trace_overhead_pct", "%", 100*(float64(traced.sumOfMedians(op.tts))/tts-1))
	rep.set("bench.outside_solver_pct", "%", 100*(1-tts/float64(untraced.sumOfMedians(func(o op) time.Duration { return o.wall }))))
	return &untraced
}

// runFor repeats rounds until d has passed; the round in progress at the
// deadline completes. Each round follows a reference pass of the host.
func (l *library) runFor(d time.Duration, tr *telemetry.Tracer, rep *report) {
	l.ops = make([][]op, len(l.probs))
	l.iters, l.rounds, l.wall = nil, 0, 0
	start := time.Now()
	for l.rounds == 0 || time.Since(start) < d {
		s := l.ref.scale()
		t0 := time.Now()
		l.round(tr, rep, s)
		l.wall += time.Since(t0).Seconds() * s
		l.rounds++
	}
}

// round solves every problem once. Every answer is verified outside the
// timed region.
func (l *library) round(tr *telemetry.Tracer, rep *report, scale float64) {
	iters := 0
	for j, pr := range l.probs {
		b := pr.b
		if l.rng != nil {
			b = seededRHS(l.rng, pr.a)
		}
		o := op{scale: scale}
		t0 := time.Now()
		span := tr.StartSpan("op " + pr.name)
		x := make([]float64, pr.a.Rows)
		p := pr.p
		if l.cold {
			opts := pr.opts
			opts.Tracer = tr
			var err error
			ts := time.Now()
			p, err = fsai.Compute(pr.a, opts)
			o.setup = time.Since(ts)
			if err != nil {
				span.End()
				rep.outcome(pr.name, "setup: "+err.Error(), false)
				continue
			}
		}
		so := krylov.DefaultOptions()
		so.Workers, so.CollectTiming = l.workers, tr != nil
		ks := tr.StartSpan("krylov.Solve")
		t1 := time.Now()
		res := krylov.Solve(pr.a, x, b, p, so)
		o.solve = time.Since(t1)
		ks.SetAttr("iterations", fmt.Sprint(res.Iterations))
		ks.End()
		span.End()
		o.wall = time.Since(t0)
		l.ops[j] = append(l.ops[j], o)
		iters += res.Iterations
		why := checkAnswer(pr.a, x, b, res.Converged)
		rep.outcome(pr.name, why, why != "")
	}
	l.iters = append(l.iters, iters)
}

// problemMedians returns, for each problem, the median of f over its
// operations, each corrected for host speed.
func (l *library) problemMedians(f func(op) time.Duration) []time.Duration {
	meds := make([]time.Duration, len(l.ops))
	for j, ops := range l.ops {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = float64(f(o)) * o.scale
		}
		meds[j] = time.Duration(median(xs))
	}
	return meds
}

// sumOfMedians is the time of a typical round: each problem's median of
// f, summed over the problems.
func (l *library) sumOfMedians(f func(op) time.Duration) time.Duration {
	var sum time.Duration
	for _, m := range l.problemMedians(f) {
		sum += m
	}
	return sum
}

// metrics reports the end-to-end metrics of a library workload. A round
// is its unit of work, and each problem contributes its median operation:
// latency_p50_ms is the sum of those medians, a typical round's time to
// solution, and latency_tail_ms is the largest, the slowest problem,
// because a run has too few rounds to support a tail percentile.
func (l *library) metrics(rep *report, setupS float64) {
	rep.set("setup_s", "s", setupS)
	rep.set("latency_p50_ms", "ms", ms(l.sumOfMedians(op.tts)))
	var tail time.Duration
	solves := 0
	for j, m := range l.problemMedians(op.tts) {
		tail = max(tail, m)
		solves += len(l.ops[j])
	}
	rep.set("latency_tail_ms", "ms", ms(tail))
	rep.set("solves_per_s", "1/s", float64(solves)/l.wall)
	rep.set("peak_rss_mib", "MiB", selfPeakRSSMiB())
	rep.set("rounds", "count", float64(l.rounds))
	var scales []float64
	for _, o := range l.ops[0] {
		scales = append(scales, o.scale)
	}
	rep.set("host.speed_scale", "x", median(scales))
}
