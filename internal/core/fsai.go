package fsai

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Variant selects the preconditioner construction of Section 7.1.
type Variant int

const (
	// VariantFSAI is the state-of-the-art baseline, Algorithm 1.
	VariantFSAI Variant = iota
	// VariantSp is FSAIE(sp): one-sided cache-friendly extension (spatial
	// locality of Gp), Algorithm 4 without steps 5-6.
	VariantSp
	// VariantFull is FSAIE(full): two-sided extension, full Algorithm 4.
	VariantFull
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantFSAI:
		return "FSAI"
	case VariantSp:
		return "FSAIE(sp)"
	case VariantFull:
		return "FSAIE(full)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// families is the one table of FSAI-family preconditioner names — the
// spelling of fsaisolve -precond, the daemon's "precond" field and the
// recovery chain's rungs — with the variant and base pattern each builds:
// "adaptive" is FSAIE(sp) on an adaptively grown base of at most 12
// entries per row (Section 8).
var families = map[string]struct {
	variant   Variant
	maxPerRow int
}{
	"fsai":     {VariantFSAI, 0},
	"fsaie-sp": {VariantSp, 0},
	"fsaie":    {VariantFull, 0},
	"adaptive": {VariantSp, 12},
}

// IsFamily reports whether ComputeNamed builds name: "fsai", "fsaie-sp",
// "fsaie" or "adaptive".
func IsFamily(name string) bool {
	_, ok := families[name]
	return ok
}

// NamedKnobs reports which Options knobs the factor ComputeNamed builds
// for name depends on: extension (Filter, LineBytes, AlignElems) for every
// name that extends its base, all but "fsai", and apriori (PatternPower,
// ThresholdTau) for every name whose base is lower(Ã^N), all but
// "adaptive".
func NamedKnobs(name string) (extension, apriori bool) {
	f := families[name]
	return f.variant != VariantFSAI, f.maxPerRow == 0
}

// ComputeNamed builds the FSAI-family preconditioner called name from the
// setup knobs in fo: the name's table entry overrides fo.Variant and
// fo.AdaptiveMaxPerRow, and the setup runs through Compute like any other.
func ComputeNamed(name string, a *sparse.CSR, fo Options) (*Preconditioner, error) {
	f, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("fsai: %q is not an FSAI-family preconditioner", name)
	}
	fo.Variant, fo.AdaptiveMaxPerRow = f.variant, f.maxPerRow
	return Compute(a, fo)
}

// Options configures a preconditioner setup.
type Options struct {
	// Variant selects FSAI / FSAIE(sp) / FSAIE(full).
	Variant Variant

	// Filter is the extension filtering threshold: an extension entry g_ij
	// survives iff |g_ij| >= Filter * |g_ii| in the precalculated G (a
	// scale-independent order-of-magnitude comparison with the diagonal).
	// The paper evaluates 0.0, 0.001, 0.01 and 0.1. Ignored by VariantFSAI.
	Filter float64

	// LineBytes is the cache line size driving the extension (64 for
	// Skylake/POWER9, 256 for A64FX). Ignored by VariantFSAI.
	LineBytes int

	// AlignElems is the element offset of the multiplying vector's first
	// element within its cache line (Section 4.1). Obtain it for a concrete
	// vector with cachesim.AlignOf.
	AlignElems int

	// PatternPower is the exponent N of Ã^N used for the initial pattern.
	// The paper's evaluation uses N == 1 (the lower triangle of A itself).
	PatternPower int

	// ThresholdTau drops small entries of A before powering (Ã). The
	// paper's evaluation uses no thresholding (0).
	ThresholdTau float64

	// AdaptiveMaxPerRow, when > 0, replaces the a-priori base pattern
	// lower(Ã^N) with a dynamically grown one (FSPAI-style, Section 8):
	// each row starts from its diagonal and greedily admits the lower
	// graph neighbour with the largest Frobenius residual, until the row
	// holds AdaptiveMaxPerRow entries or the best residual falls below
	// 0.02 times the row's current diagonal. PatternPower and ThresholdTau
	// are then unused; the variant's extension, filtering and solve run on
	// that base unchanged. 0 keeps lower(Ã^N).
	AdaptiveMaxPerRow int

	// MaxRowNNZ bounds the per-row size of extended patterns (see
	// ExtendPattern); <= 0 disables the bound. DefaultOptions sets 512.
	MaxRowNNZ int

	// StandardFiltering switches FSAIE to the classical compute-drop-rescale
	// post-filtering of Algorithm 1 instead of the precalculation strategy,
	// for the Table 3 comparison.
	StandardFiltering bool

	// Workers bounds setup parallelism (<=0: all CPUs).
	Workers int

	// Tracer, when non-nil, receives one named span per setup phase of
	// Algorithms 3-4 (base pattern, cache-aware extension, precalc CG,
	// filter, final Frobenius solve). Per-phase wall times are always
	// recorded in SetupStats.Phases regardless.
	Tracer *telemetry.Tracer

	// Ctx, when non-nil, carries the caller's pprof label set; Compute runs
	// under it with phase=setup merged in, so continuous-profiling windows
	// attribute FSAI setup CPU to the owning job. Setup is not cancelled
	// through it.
	Ctx context.Context
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation campaign: initial pattern = lower triangle of A, no
// thresholding, filter 0.01, 64-byte lines.
func DefaultOptions() Options {
	return Options{
		Variant:      VariantFull,
		Filter:       0.01,
		LineBytes:    64,
		PatternPower: 1,
		MaxRowNNZ:    512,
		Workers:      1,
	}
}

func (o *Options) normalize() {
	if o.LineBytes <= 0 {
		o.LineBytes = 64
	}
	if o.PatternPower <= 0 {
		o.PatternPower = 1
	}
}

// Setup phase names recorded in SetupStats.Phases and emitted as tracer
// spans; one per phase of Algorithms 3-4.
const (
	PhaseBasePattern    = "base-pattern"    // steps 1-2: lower(Ã^N), or the adaptive search
	PhaseExtend         = "extend"          // Algorithm 3: cache-friendly fill-in
	PhasePrecalc        = "precalc"         // Section 5: loose-tolerance CG estimate
	PhaseFilter         = "filter"          // drop weak extension entries
	PhaseSolve          = "frobenius-solve" // exact local solves on the final pattern
	PhaseStandardFilter = "post-filter"     // Table 3 path only: StandardFiltering's drop-rescale
)

// PhaseTiming is the measured wall time of one setup phase. Phases appear in
// execution order; FSAIE(full) repeats extend/precalc/filter for the
// transposed pass, so names may occur twice.
type PhaseTiming struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// SetupStats records the work done during setup; the performance model
// prices these into simulated setup seconds.
type SetupStats struct {
	// DirectFlops counts floating-point work of the exact local solves
	// (Cholesky ~ s³/3 + solves ~ 2s² per row of local size s), the
	// adaptive search's included.
	DirectFlops float64
	// PrecalcFlops counts the loose CG precalculation work (~2s² per
	// iteration per row). Both counts model the paper's dense local solves,
	// which perfmodel prices; the precalculation here runs sparse and does
	// less.
	PrecalcFlops float64
	// PatternOps counts symbolic work: entries visited while powering,
	// extending and filtering patterns.
	PatternOps float64
	// Rows, MaxLocal record the number of local systems and the largest one.
	Rows, MaxLocal int
	// Phases holds per-phase wall times in execution order.
	Phases []PhaseTiming
}

// PhaseNS returns the total wall nanoseconds recorded for the named phase
// (summing repeated passes), or 0 if the phase did not run.
func (s *SetupStats) PhaseNS(name string) int64 {
	var total int64
	for _, p := range s.Phases {
		if p.Name == name {
			total += p.NS
		}
	}
	return total
}

// TotalPhaseNS returns the summed wall nanoseconds across all phases.
func (s *SetupStats) TotalPhaseNS() int64 {
	var total int64
	for _, p := range s.Phases {
		total += p.NS
	}
	return total
}

func (s *SetupStats) add(o SetupStats) {
	s.DirectFlops += o.DirectFlops
	s.PrecalcFlops += o.PrecalcFlops
	s.PatternOps += o.PatternOps
	if o.MaxLocal > s.MaxLocal {
		s.MaxLocal = o.MaxLocal
	}
	s.Rows += o.Rows
}

// Preconditioner is a computed FSAI factorization M⁻¹ = GᵀG ≈ A⁻¹. It
// implements krylov.BlockPreconditioner; applying it costs two SpMV
// products. It is data: no apply writes to it, so any number of concurrent
// solves can share one.
type Preconditioner struct {
	// G is the lower-triangular factor in CSR.
	G *sparse.CSR
	// GT is Gᵀ, stored explicitly in CSR as the paper's implementation does,
	// so both products traverse rows with stride-1 matrix accesses.
	GT *sparse.CSR
	// BasePattern is the initial (numerical-criteria) pattern of G;
	// FinalPattern the pattern after extensions and filtering, which is
	// G's structure and shares its arrays.
	BasePattern, FinalPattern *pattern.Pattern
	// Stats records setup work for the performance model.
	Stats SetupStats
}

// Apply computes z = Gᵀ(G r), the FSAI preconditioning operation, on an
// engine of its own over all CPUs. It serves callers outside a solve; a
// solve applies the factor through ApplyBlock on the solve's engine.
func (p *Preconditioner) Apply(z, r []float64) {
	tmp := kernels.GetBlockScratch(p.G.Rows)
	p.ApplyBlock(kernels.New(p.G.Rows, 0), z, r, *tmp, 1)
	kernels.PutBlockScratch(tmp)
}

// ApplyBlock computes Z = Gᵀ(G R) for k column-major residual vectors as
// two sparse product sweeps on e, the solve's engine, with tmp (rows × k)
// holding G R between them: the factors' CSR streams are read once for all
// k columns instead of once per column, which is where the batched solve
// path earns its per-RHS speedup. Column j of the result is bit-identical
// to the k = 1 apply of column j (the product kernels preserve the
// per-column accumulation order), and the sweeps allocate nothing once the
// factors' partition plans for e's worker count exist.
func (p *Preconditioner) ApplyBlock(e *kernels.Engine, z, r, tmp []float64, k int) {
	e.SpMM(p.G, tmp, r, k)
	e.SpMM(p.GT, z, tmp, k)
}

// FromFactors reconstructs a Preconditioner from a factor G computed
// earlier, its base pattern and its setup stats. It exists for the durable
// store, which keeps G alone: Gᵀ is rebuilt with the transpose Compute
// runs, here on workers row chunks (<=0: all CPUs). Its result does not
// depend on workers, so it holds the bits Compute built, and the final
// pattern is a view of G's structure, as it is in Compute. A factor rehydrated from disk is therefore bit-identical to the
// one that was computed, and warm solves after a restart reproduce the
// original arithmetic. base may be nil (ExtensionPct then reads zero).
func FromFactors(g *sparse.CSR, base *pattern.Pattern, stats SetupStats, workers int) *Preconditioner {
	return &Preconditioner{
		G:            g,
		GT:           g.TransposeParallel(workers),
		BasePattern:  base,
		FinalPattern: structureOf(g),
		Stats:        stats,
	}
}

// NNZ returns the stored-entry count of the lower factor G.
func (p *Preconditioner) NNZ() int { return p.G.NNZ() }

// ExtensionPct returns the percentage of entries the final pattern adds on
// top of the base pattern (the "% NNZ" columns of Table 1). Zero when the
// patterns are absent (e.g. a factor rehydrated without them).
func (p *Preconditioner) ExtensionPct() float64 {
	if p.BasePattern == nil || p.FinalPattern == nil {
		return 0
	}
	base := p.BasePattern.NNZ()
	if base == 0 {
		return 0
	}
	return 100 * float64(p.FinalPattern.NNZ()-base) / float64(base)
}

// PublishSetupStats records s in reg as labelled per-phase/per-variant
// series: one counter of accumulated nanoseconds per (phase, variant) and
// one setup counter per variant. Nil-safe on a nil registry.
func PublishSetupStats(reg *telemetry.Registry, variant string, s *SetupStats) {
	if reg == nil || s == nil {
		return
	}
	reg.SetHelp("fsai_setup_phase_ns", "accumulated FSAI setup wall nanoseconds by phase and variant")
	reg.SetHelp("fsai_setups", "preconditioner setups by variant")
	for _, ph := range s.Phases {
		reg.Counter(`fsai.setup.phase_ns{phase="` + ph.Name + `",variant="` + variant + `"}`).Add(ph.NS)
	}
	reg.Counter(`fsai.setups{variant="` + variant + `"}`).Inc()
}

// ErrNotSPD is reported when a local system A(S_i,S_i) is not positive
// definite, which for exact arithmetic cannot happen with SPD A.
var ErrNotSPD = errors.New("fsai: local system not positive definite (is A SPD?)")

// InitialPattern computes the a-priori pattern of G: the lower triangle
// (diagonal included) of the pattern of Ã^N, where Ã is A thresholded with
// tau (Algorithm 1/2/4, steps 1-2). The lower triangle and the diagonal are
// taken in one pass on workers row chunks (see pattern.Build); the result
// does not depend on workers.
func InitialPattern(a *sparse.CSR, tau float64, power, workers int) *pattern.Pattern {
	at := a
	if tau > 0 {
		at = a.Threshold(tau)
	}
	rowPtr, cols := at.RowPtr, at.ColIdx
	if power > 1 {
		pp := pattern.FromCSR(at).Power(power)
		rowPtr, cols = pp.RowPtr, pp.Cols
	}
	return pattern.Build(a.Rows, a.Cols, workers, func(dst []int, i int) []int {
		for _, j := range cols[rowPtr[i]:rowPtr[i+1]] {
			if j >= i {
				break
			}
			dst = append(dst, j)
		}
		if i < a.Cols {
			dst = append(dst, i)
		}
		return dst
	})
}

// computeRows evaluates G values on the given lower-triangular pattern by
// solving each local Frobenius system A(S_i,S_i) y = e_i exactly and scaling
// by 1/sqrt(y_i) so that diag(G A Gᵀ) = 1 (Kolotilina-Yeremin FSAI).
// The returned CSR shares the pattern's index structure.
func computeRows(a *sparse.CSR, p *pattern.Pattern, workers int, stats *SetupStats) (*sparse.CSR, error) {
	g := factorOn(a.Rows, p)
	err := forRowChunks(a.Rows, workers, stats, func(lo, hi int, st *SetupStats) error {
		pos := newScatter(a.Rows)
		var aloc, rhs, work []float64
		for i := lo; i < hi; i++ {
			idx := p.Row(i)
			m := len(idx)
			if m == 0 || idx[m-1] != i {
				return setupErrf(ReasonMissingDiagonal, i, "row %d pattern lacks diagonal", i)
			}
			if m > st.MaxLocal {
				st.MaxLocal = m
			}
			st.Rows++
			aloc, rhs, work = grow(aloc, m*m), grow(rhs, m), grow(work, m*m)
			pos.load(idx)
			pos.block(a, idx, aloc)
			pos.unload(idx)
			sparse.GatherRHS(rhs, m-1)
			if err := dense.SolveSPD(aloc, m, rhs, work); err != nil {
				return setupErrf(ReasonNotSPD, i, "row %d: %w", i, ErrNotSPD)
			}
			fm := float64(m)
			st.DirectFlops += fm*fm*fm/3 + 2*fm*fm
			d := rhs[m-1]
			if d <= 0 || math.IsNaN(d) {
				return setupErrf(ReasonNotSPD, i, "row %d diagonal %g: %w", i, d, ErrNotSPD)
			}
			scale := 1 / math.Sqrt(d)
			off := g.RowPtr[i]
			for k := 0; k < m; k++ {
				g.Val[off+k] = rhs[k] * scale
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// factorOn returns the n×n CSR on p's structure with zero values: its
// RowPtr and ColIdx are p's arrays, which neither changes afterwards.
func factorOn(n int, p *pattern.Pattern) *sparse.CSR {
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: p.RowPtr, ColIdx: p.Cols, Val: make([]float64, p.NNZ())}
}

// scatter maps global columns to positions in a worker's current index set
// and holds −1 elsewhere: load maps a set, unload clears it again.
type scatter []int32

func newScatter(n int) scatter {
	s := make(scatter, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

func (s scatter) load(idx []int) {
	for l, g := range idx {
		s[g] = int32(l)
	}
}

func (s scatter) unload(idx []int) {
	for _, g := range idx {
		s[g] = -1
	}
}

// block writes A(idx, idx) column-major into out[:m*m], m = len(idx), with
// idx loaded: the block sparse.Extract writes, each row's entries found
// through the map instead of a merge walk with idx.
func (s scatter) block(a *sparse.CSR, idx []int, out []float64) []float64 {
	m := len(idx)
	out = out[:m*m]
	clear(out)
	for r, g := range idx {
		lo, hi := a.RowPtr[g], a.RowPtr[g+1]
		vals := a.Val[lo:hi]
		for k, c := range a.ColIdx[lo:hi] {
			if l := s[c]; l >= 0 {
				out[int(l)*m+r] = vals[k]
			}
		}
	}
	return out
}

// structureOf returns g's pattern as a view: its RowPtr and Cols are g's
// arrays. A factor's final pattern is always this view of G.
func structureOf(g *sparse.CSR) *pattern.Pattern {
	return &pattern.Pattern{Rows: g.Rows, NCols: g.Cols, RowPtr: g.RowPtr, Cols: g.ColIdx}
}

// forRowChunks runs body over the contiguous row chunks [lo, hi) of an
// n-row setup loop on up to workers workers (<=0: all CPUs), each chunk
// with its own SetupStats, added into stats in chunk order when every chunk
// succeeds. A row task that panics is contained by the pool and comes back
// as a ReasonWorkerPanic SetupError instead of crashing the process;
// otherwise the first failing chunk's error is returned.
func forRowChunks(n, workers int, stats *SetupStats, body func(lo, hi int, st *SetupStats) error) error {
	nw := workers
	if nw <= 0 {
		nw = parallel.MaxWorkers()
	}
	errs := make([]error, nw)
	partial := make([]SetupStats, nw)
	bounds := parallel.Chunks(n, nw)
	if err := parallel.ForErr(len(bounds)/2, nw, func(wlo, whi int) {
		for c := wlo; c < whi; c++ {
			errs[c] = body(bounds[2*c], bounds[2*c+1], &partial[c])
		}
	}); err != nil {
		return setupErr(ReasonWorkerPanic, -1, err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if stats != nil {
		for _, st := range partial {
			stats.add(st)
		}
	}
	return nil
}
