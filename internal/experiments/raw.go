// Package experiments implements the paper's evaluation campaign: running
// the FSAI / FSAIE(sp) / FSAIE(full) preconditioners over the 72-matrix
// suite for every filter value, measuring iterations, cache misses and
// modelled times, and rendering every table (1-5) and figure (2-7) of
// Section 7.
//
// The campaign is split in two phases. The *raw* phase measures everything
// that depends only on the cache-line size and L1 geometry: sparse patterns,
// PCG iteration counts, x-access cache misses and setup work. Skylake and
// POWER9 share a raw run (both have 64 B lines — the paper notes their
// pattern extensions are fundamentally equal); A64FX (256 B) gets its own.
// The *pricing* phase (price.go) converts raw measurements into simulated
// seconds per architecture.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/cachesim"
	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// DefaultFilters are the paper's filter sweep values.
func DefaultFilters() []float64 { return []float64{0.0, 0.001, 0.01, 0.1} }

// ReferenceFilter is the best common filter value per the paper (0.01);
// Table 1 and Figures 3/4 are reported at this value.
const ReferenceFilter = 0.01

// RawOptions configures a raw campaign run.
type RawOptions struct {
	// L1 is the simulated L1 data-cache geometry; L1.LineBytes drives the
	// pattern extension.
	L1 cachesim.Config
	// Filters is the filter sweep (DefaultFilters if nil).
	Filters []float64
	// Tol and MaxIter configure the PCG solves (1e-8 / 10000 as in the
	// paper when zero).
	Tol     float64
	MaxIter int
	// MaxRowNNZ caps extended row sizes (see fsai.Options). Campaigns use
	// 256 to keep unfiltered extensions of scattered patterns tractable on
	// the reproduction hardware.
	MaxRowNNZ int
	// WithRandom additionally measures the randomly-extended control
	// pattern of Figures 3-4 (same entry count as FSAIE(full) at the
	// reference filter).
	WithRandom bool
	// WithStandard additionally runs FSAIE(sp) with the classical
	// post-filtering for the Table 3 comparison.
	WithStandard bool
	// Workers bounds intra-solve parallelism (1 on the reproduction host).
	Workers int
	// Progress, when non-nil, receives one line per matrix.
	Progress io.Writer
	// Ctx, when non-nil, cancels the campaign cooperatively: the running
	// PCG solve stops at the next check and RunRaw returns the context's
	// error (partial results are discarded).
	Ctx context.Context

	// RecordHistory stores per-iteration relative residuals in each
	// MethodRaw (needed for machine-readable run reports).
	RecordHistory bool
	// CollectTiming enables the per-solve wall-clock kernel breakdown
	// (SpMV / preconditioner / BLAS-1) in each MethodRaw.
	CollectTiming bool
	// Metrics, when non-nil, receives solver iteration-timing histograms
	// and counters from every PCG solve of the campaign, plus per-variant
	// setup-phase counters and (with CollectCacheAttrib) cache-miss
	// attribution series.
	Metrics *telemetry.Registry
	// CollectCacheAttrib enables the attributed precondition trace: each
	// MethodRaw additionally carries the per-phase / per-entry-class /
	// per-row-block x-miss breakdown (the run report's "cache" section).
	CollectCacheAttrib bool
	// ProgressDetail, when non-nil, receives every PCG iteration of every
	// solve in the campaign (the live-observability hook; see
	// obs.SolveWatcher).
	ProgressDetail func(krylov.ProgressInfo)
	// Tracer, when non-nil, receives one span tree per preconditioner
	// setup (the Algorithm 3-4 phases).
	Tracer *telemetry.Tracer
}

func (o *RawOptions) normalize() {
	if o.Filters == nil {
		o.Filters = DefaultFilters()
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.MaxRowNNZ == 0 {
		o.MaxRowNNZ = 256
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.L1.LineBytes == 0 {
		o.L1 = arch.Skylake().L1Sim
	}
}

// MethodRaw is the arch-independent measurement of one preconditioner
// configuration on one matrix.
type MethodRaw struct {
	Variant fsai.Variant
	Filter  float64

	NNZG   int     // stored entries of the lower factor G
	ExtPct float64 // % entries added over the base pattern (Table 1 "% NNZ")

	Iterations int
	Converged  bool
	// Status is the typed solver termination for this measurement.
	Status krylov.Status

	// X-access L1 misses per sweep: the A SpMV and the two preconditioner
	// products (GᵀGp traced jointly, reported per sweep).
	MissA, MissG, MissGT uint64

	// Line visits (distinct x cache lines touched per row, summed) per
	// sweep — the quantity the cache-friendly extension holds constant.
	LVA, LVG, LVGT int

	// MissPerNNZ is (MissG+MissGT) normalized by nnz(G): the Figure 3
	// metric.
	MissPerNNZ float64

	Stats fsai.SetupStats

	// WallSetup/WallSolve are host wall-clock measurements (informative
	// only; the tables use modelled times).
	WallSetup, WallSolve time.Duration

	// History holds per-iteration relative residuals when
	// RawOptions.RecordHistory is set.
	History []float64
	// Timing is the solver's kernel-class wall-clock breakdown when
	// RawOptions.CollectTiming is set.
	Timing krylov.Timing

	// CacheAttrib is the attributed precondition trace when
	// RawOptions.CollectCacheAttrib is set: the same total misses as
	// MissG/MissGT, split by entry class and row block.
	CacheAttrib *cachesim.PrecondAttrib

	// StdIterations is the iteration count under the classical
	// post-filtering strategy (Table 3); 0 when not measured. StdConverged
	// reports whether that solve converged.
	StdIterations int
	StdConverged  bool
}

// MatrixRaw aggregates raw measurements for one suite matrix.
type MatrixRaw struct {
	Spec       matgen.Spec
	Rows, NNZ  int
	AlignElems int

	FSAI MethodRaw
	Sp   []MethodRaw // indexed like Filters
	Full []MethodRaw

	// Random-extension control (Figures 3-4): pattern with the same number
	// of added entries as FSAIE(full) at the reference filter, placed
	// uniformly at random.
	RandomNNZG                int
	RandomMissG, RandomMissGT uint64
	RandomLVG, RandomLVGT     int
	RandomMissPerNNZ          float64
	RandomMeasured            bool
	RandomIterations          int
	RandomConverged           bool
	RandomStats               fsai.SetupStats
}

// RawCampaign is the result of a raw run over a matrix set.
type RawCampaign struct {
	Opts    RawOptions
	Results []MatrixRaw
}

// alignFor returns the deterministic cache-line offset (in elements) of the
// solution/preconditioning vectors for a given matrix: matrices land on
// different alignments exactly as naturally allocated vectors do in the
// paper's runs.
func alignFor(spec matgen.Spec, elemsPerLine int) int {
	return (spec.ID * 3) % elemsPerLine
}

// RunRaw executes the raw campaign over the given matrix specs.
func RunRaw(specs []matgen.Spec, opts RawOptions) (*RawCampaign, error) {
	opts.normalize()
	camp := &RawCampaign{Opts: opts, Results: make([]MatrixRaw, 0, len(specs))}
	for _, spec := range specs {
		mr, err := runMatrix(spec, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
		}
		camp.Results = append(camp.Results, mr)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "[%2d/%2d] %-22s n=%6d nnz=%7d FSAI=%4d iters, FSAIE(full,%.3g)=%4d iters (%+.1f%% nnz)\n",
				spec.ID, len(specs), spec.Name, mr.Rows, mr.NNZ, mr.FSAI.Iterations,
				ReferenceFilter, refOf(mr.Full, opts.Filters).Iterations, refOf(mr.Full, opts.Filters).ExtPct)
		}
	}
	return camp, nil
}

// refOf returns the method measurement at the reference filter (or the last
// one if the sweep does not include it).
func refOf(ms []MethodRaw, filters []float64) MethodRaw {
	for i, f := range filters {
		if f == ReferenceFilter && i < len(ms) {
			return ms[i]
		}
	}
	if len(ms) == 0 {
		return MethodRaw{}
	}
	return ms[len(ms)-1]
}

func runMatrix(spec matgen.Spec, opts RawOptions) (MatrixRaw, error) {
	a := spec.Generate()
	b := spec.RHS(a)
	elems := opts.L1.LineBytes / 8
	align := alignFor(spec, elems)
	mr := MatrixRaw{Spec: spec, Rows: a.Rows, NNZ: a.NNZ(), AlignElems: align}

	kopt := krylov.Options{
		Tol: opts.Tol, MaxIter: opts.MaxIter, Workers: opts.Workers,
		RecordHistory:  opts.RecordHistory,
		CollectTiming:  opts.CollectTiming,
		Metrics:        opts.Metrics,
		ProgressDetail: opts.ProgressDetail,
		Ctx:            opts.Ctx,
	}
	cache := cachesim.New(opts.L1)
	trace := cachesim.TraceOptions{AlignElems: align, IncludeStreams: true}
	missA := cachesim.TraceCSR(cache, a, trace)
	lvA := cachesim.CountLineVisits(pattern.FromCSR(a), elems, align)

	run := func(fopt fsai.Options) (MethodRaw, *fsai.Preconditioner, error) {
		fopt.Tracer = opts.Tracer
		t0 := time.Now()
		p, err := fsai.Compute(a, fopt)
		if err != nil {
			return MethodRaw{}, nil, err
		}
		wallSetup := time.Since(t0)
		x := make([]float64, a.Rows)
		t0 = time.Now()
		res := krylov.Solve(a, x, b, p, kopt)
		wallSolve := time.Since(t0)
		if res.Status == krylov.StatusCancelled {
			return MethodRaw{}, nil, fmt.Errorf("solve cancelled: %w", context.Cause(opts.Ctx))
		}
		gp := pattern.FromCSR(p.G)
		gm, gtm := cachesim.TracePrecondition(cache, gp, trace)
		lvG := cachesim.CountLineVisits(gp, elems, align)
		lvGT := cachesim.CountLineVisits(gp.Transpose(), elems, align)
		var attrib *cachesim.PrecondAttrib
		if opts.CollectCacheAttrib {
			a := cachesim.TracePreconditionAttrib(cache, gp, p.BasePattern, trace, 0)
			attrib = &a
			attrib.Publish(opts.Metrics)
		}
		fsai.PublishSetupStats(opts.Metrics, fopt.Variant.String(), &p.Stats)
		m := MethodRaw{
			Variant:     fopt.Variant,
			Filter:      fopt.Filter,
			NNZG:        p.NNZ(),
			ExtPct:      p.ExtensionPct(),
			Iterations:  res.Iterations,
			Converged:   res.Converged,
			Status:      res.Status,
			MissA:       missA,
			MissG:       gm,
			MissGT:      gtm,
			LVA:         lvA,
			LVG:         lvG,
			LVGT:        lvGT,
			MissPerNNZ:  float64(gm+gtm) / float64(p.NNZ()),
			Stats:       p.Stats,
			WallSetup:   wallSetup,
			WallSolve:   wallSolve,
			History:     res.History,
			Timing:      res.Timing,
			CacheAttrib: attrib,
		}
		return m, p, nil
	}

	baseOpt := fsai.DefaultOptions()
	baseOpt.LineBytes = opts.L1.LineBytes
	baseOpt.AlignElems = align
	baseOpt.MaxRowNNZ = opts.MaxRowNNZ
	baseOpt.Workers = opts.Workers

	// Baseline FSAI.
	fo := baseOpt
	fo.Variant = fsai.VariantFSAI
	var err error
	mr.FSAI, _, err = run(fo)
	if err != nil {
		return mr, err
	}

	var fullRefG *sparse.CSR
	var fullRefBase *pattern.Pattern
	for _, filter := range opts.Filters {
		for _, variant := range []fsai.Variant{fsai.VariantSp, fsai.VariantFull} {
			fo := baseOpt
			fo.Variant = variant
			fo.Filter = filter
			m, p, err := run(fo)
			if err != nil {
				return mr, err
			}
			if opts.WithStandard && variant == fsai.VariantSp && filter > 0 {
				so := fo
				so.StandardFiltering = true
				sm, _, err := run(so)
				if err != nil {
					return mr, err
				}
				m.StdIterations = sm.Iterations
				m.StdConverged = sm.Converged
			}
			if variant == fsai.VariantSp {
				mr.Sp = append(mr.Sp, m)
			} else {
				mr.Full = append(mr.Full, m)
				if filter == ReferenceFilter {
					fullRefG = p.G
					fullRefBase = p.BasePattern
				}
			}
		}
	}

	if opts.WithRandom && fullRefG != nil {
		extra := fullRefG.NNZ() - fullRefBase.NNZ()
		rng := rand.New(rand.NewSource(int64(31 + spec.ID)))
		rp := fsai.RandomExtendPattern(fullRefBase, extra, rng, fsai.ClipLower)
		g, err := fsai.ComputeOnPattern(a, rp, opts.Workers, &mr.RandomStats)
		if err != nil {
			return mr, fmt.Errorf("random extension: %w", err)
		}
		gpat := pattern.FromCSR(g)
		gm, gtm := cachesim.TracePrecondition(cache, gpat, trace)
		mr.RandomNNZG = g.NNZ()
		mr.RandomMissG, mr.RandomMissGT = gm, gtm
		mr.RandomLVG = cachesim.CountLineVisits(gpat, elems, align)
		mr.RandomLVGT = cachesim.CountLineVisits(gpat.Transpose(), elems, align)
		mr.RandomMissPerNNZ = float64(gm+gtm) / float64(g.NNZ())
		x := make([]float64, a.Rows)
		pre := &fsai.Preconditioner{G: g, GT: g.Transpose()}
		res := krylov.Solve(a, x, b, pre, kopt)
		if res.Status == krylov.StatusCancelled {
			return mr, fmt.Errorf("solve cancelled: %w", context.Cause(opts.Ctx))
		}
		mr.RandomIterations = res.Iterations
		mr.RandomConverged = res.Converged
		mr.RandomMeasured = true
	}
	return mr, nil
}
