package main

import (
	"math/rand"
	"time"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// problem is one (matrix, preconditioner) pair of a workload.
type problem struct {
	name string
	a    *sparse.CSR
	opts fsai.Options
	p    *fsai.Preconditioner // the built factor, once a warm workload has one
	b    []float64            // the fixed right-hand side, for workloads that repeat one
}

// corePhases maps the setup phases of internal/core to metric names.
var corePhases = []struct{ phase, metric string }{
	{fsai.PhaseBasePattern, "core.base_pattern_ms"},
	{fsai.PhaseExtend, "core.extend_ms"},
	{fsai.PhasePrecalc, "core.precalc_ms"},
	{fsai.PhaseFilter, "core.filter_ms"},
	{fsai.PhaseSolve, "core.frobenius_solve_ms"},
}

// probePasses bounds how often the layer probes repeat their problem set.
const probePasses = 3

// probeLayers times calls into each layer's public functions on the
// workload's own problems: a traced fsai.Compute per problem (core setup
// phases and work counts), Preconditioner.Apply (core apply), a PCG solve
// with CollectTiming (krylov), and serial and parallel SpMV of each matrix
// (sparse, parallel). It repeats the problem set up to probePasses times
// within a quarter of the run time and reports each quantity's median over
// passes, every pass summing over the problems. Its spans go to rep.
func probeLayers(rep *report, probs []*problem, workers int, cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tr := telemetry.NewTracer(nil)
	var passes []map[string]float64
	start := time.Now()
	for len(passes) < probePasses && (len(passes) == 0 || time.Since(start) < cfg.duration()/4) {
		span := tr.StartSpan("probe-pass")
		passes = append(passes, probePass(rep, probs, workers, rng, tr))
		span.End()
	}
	rep.spans = append(rep.spans, tr.Report()...)
	med := func(name string) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[name])
		}
		return median(xs)
	}
	for _, ph := range corePhases {
		rep.set(ph.metric, "ms", med(ph.metric))
	}
	last := passes[len(passes)-1]
	rep.set("core.unphased_ms", "ms", med("core.unphased_ms"))
	rep.set("core.precalc_mflop", "Mflop", last["core.precalc_mflop"])
	rep.set("core.direct_mflop", "Mflop", last["core.direct_mflop"])
	rep.set("core.pattern_mops", "Mops", last["core.pattern_mops"])
	rep.set("core.max_local", "count", last["core.max_local"])
	rep.set("core.g_nnz", "count", last["core.g_nnz"])
	rep.set("core.compute_ms", "ms", med("core.compute_ms"))
	rep.set("core.apply_us", "us", med("core.apply_us"))
	rep.set("core.apply_gbs", "GB/s", last["apply_bytes"]/med("core.apply_us")/1e3)
	rep.set("krylov.spmv_ms", "ms", med("krylov.spmv_ms"))
	rep.set("krylov.precond_ms", "ms", med("krylov.precond_ms"))
	rep.set("krylov.blas1_ms", "ms", med("krylov.blas1_ms"))
	rep.set("krylov.iterations", "count", last["krylov.iterations"])
	rep.set("krylov.iter_us", "us", 1e3*med("krylov.total_ms")/last["krylov.iterations"])
	spmvUS := med("spmv_w1_us")
	if workers > 1 {
		spmvUS = med("spmv_w2_us")
	}
	gbs := last["spmv_bytes"] / spmvUS / 1e3
	rep.set("sparse.spmv_us", "us", spmvUS)
	rep.set("sparse.spmv_gbs", "GB/s", gbs)
	rep.set("sparse.spmv_bytes_per_nnz", "B", last["spmv_bytes"]/last["spmv_nnz"])
	if roof, ok := rep.values["host.triad_gbs"]; ok {
		rep.set("sparse.spmv_roof_pct", "%", 100*gbs/roof)
	}
	rep.set("parallel.spmv_speedup_w2", "x", med("spmv_w1_us")/med("spmv_w2_us"))
	rep.set("probe.passes", "count", float64(len(passes)))
}

// probePass runs every probe once over probs and returns the sums.
func probePass(rep *report, probs []*problem, workers int, rng *rand.Rand, tr *telemetry.Tracer) map[string]float64 {
	s := map[string]float64{}
	seen := map[*sparse.CSR]bool{}
	for _, pr := range probs {
		span := tr.StartSpan("probe " + pr.name)
		opts := pr.opts
		opts.Tracer = tr
		t0 := time.Now()
		p, err := fsai.Compute(pr.a, opts)
		wall := time.Since(t0)
		if err != nil {
			rep.incorrect("probe " + pr.name + ": " + err.Error())
			span.End()
			continue
		}
		for _, ph := range corePhases {
			s[ph.metric] += ms(time.Duration(p.Stats.PhaseNS(ph.phase)))
		}
		s["core.compute_ms"] += ms(wall)
		s["core.unphased_ms"] += ms(wall - time.Duration(p.Stats.TotalPhaseNS()))
		s["core.precalc_mflop"] += p.Stats.PrecalcFlops / 1e6
		s["core.direct_mflop"] += p.Stats.DirectFlops / 1e6
		s["core.pattern_mops"] += p.Stats.PatternOps / 1e6
		s["core.max_local"] = max(s["core.max_local"], float64(p.Stats.MaxLocal))
		s["core.g_nnz"] += float64(p.NNZ())

		n := pr.a.Rows
		r, z := seededRHS(rng, pr.a), make([]float64, n)
		as := tr.StartSpan("core.Apply")
		s["core.apply_us"] += us(perCall(func() { p.Apply(z, r) }))
		as.End()
		s["apply_bytes"] += float64(spmvBytes(p.G) + spmvBytes(p.GT))

		ks := tr.StartSpan("krylov.Solve")
		x := make([]float64, n)
		so := krylov.DefaultOptions()
		so.Workers, so.CollectTiming = workers, true
		res := krylov.Solve(pr.a, x, r, p, so)
		ks.End()
		if why := checkAnswer(pr.a, x, r, res.Converged); why != "" {
			rep.incorrect("probe " + pr.name + ": " + why)
		}
		s["krylov.spmv_ms"] += ms(res.Timing.SpMV)
		s["krylov.precond_ms"] += ms(res.Timing.Precond)
		s["krylov.blas1_ms"] += ms(res.Timing.BLAS1)
		s["krylov.total_ms"] += ms(res.Timing.Total)
		s["krylov.iterations"] += float64(res.Iterations)

		if !seen[pr.a] {
			seen[pr.a] = true
			y := make([]float64, n)
			ss := tr.StartSpan("sparse.MulVec")
			s["spmv_w1_us"] += us(perCall(func() { pr.a.MulVec(y, r) }))
			s["spmv_w2_us"] += us(perCall(func() { pr.a.MulVecParallel(y, r, 2) }))
			ss.End()
			s["spmv_bytes"] += float64(spmvBytes(pr.a))
			s["spmv_nnz"] += float64(pr.a.NNZ())
		}
		span.End()
	}
	return s
}

// perCall returns the median time of one call of fn over five batches,
// each sized to take about 2 ms, after one warm-up call.
func perCall(fn func()) time.Duration {
	fn()
	t0 := time.Now()
	fn()
	k := int(2*time.Millisecond/max(time.Since(t0), time.Microsecond)) + 1
	var per []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(k))
	}
	return time.Duration(median(per))
}
