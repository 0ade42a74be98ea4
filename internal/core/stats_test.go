package fsai

import (
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/telemetry"
)

// TestSetupStatsMonotoneAcrossVariants pins down the SetupStats contract:
// on the same matrix, symbolic pattern work and the recorded setup phases
// grow monotonically FSAI → FSAIE(sp) → FSAIE(full), since each variant
// strictly adds work (one, then two extension/precalc/filter passes).
func TestSetupStatsMonotoneAcrossVariants(t *testing.T) {
	a := matgen.Laplace2D(24, 24)
	stats := map[Variant]SetupStats{}
	for _, v := range []Variant{VariantFSAI, VariantSp, VariantFull} {
		opts := DefaultOptions()
		opts.Variant = v
		p, err := Compute(a, opts)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		stats[v] = p.Stats
	}

	for v, s := range stats {
		if s.PatternOps <= 0 {
			t.Errorf("%s: PatternOps = %g, want > 0", v, s.PatternOps)
		}
		if s.DirectFlops <= 0 || s.Rows != a.Rows || s.MaxLocal <= 0 {
			t.Errorf("%s: stats not populated: %+v", v, s)
		}
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phases recorded", v)
		}
		for _, p := range s.Phases {
			if p.NS < 0 {
				t.Errorf("%s: phase %s has negative duration", v, p.Name)
			}
		}
		if s.TotalPhaseNS() <= 0 {
			t.Errorf("%s: total phase time = %d, want > 0", v, s.TotalPhaseNS())
		}
	}

	if !(stats[VariantFSAI].PatternOps < stats[VariantSp].PatternOps) ||
		!(stats[VariantSp].PatternOps < stats[VariantFull].PatternOps) {
		t.Errorf("PatternOps not monotone: FSAI=%g Sp=%g Full=%g",
			stats[VariantFSAI].PatternOps, stats[VariantSp].PatternOps, stats[VariantFull].PatternOps)
	}
	if !(len(stats[VariantFSAI].Phases) < len(stats[VariantSp].Phases)) ||
		!(len(stats[VariantSp].Phases) < len(stats[VariantFull].Phases)) {
		t.Errorf("phase counts not monotone: FSAI=%d Sp=%d Full=%d",
			len(stats[VariantFSAI].Phases), len(stats[VariantSp].Phases), len(stats[VariantFull].Phases))
	}
	// Precalc work only exists for the extended variants.
	if stats[VariantFSAI].PrecalcFlops != 0 {
		t.Errorf("FSAI should have no precalc work, got %g", stats[VariantFSAI].PrecalcFlops)
	}
	if stats[VariantSp].PrecalcFlops <= 0 || stats[VariantFull].PrecalcFlops <= stats[VariantSp].PrecalcFlops {
		t.Errorf("PrecalcFlops not monotone: Sp=%g Full=%g",
			stats[VariantSp].PrecalcFlops, stats[VariantFull].PrecalcFlops)
	}
}

// TestSetupPhaseNames asserts each variant records exactly the phases its
// algorithm executes, with PhaseNS summing repeated passes.
func TestSetupPhaseNames(t *testing.T) {
	a := matgen.Laplace2D(16, 16)
	wantCounts := map[Variant]map[string]int{
		VariantFSAI: {PhaseBasePattern: 1, PhaseSolve: 1},
		VariantSp:   {PhaseBasePattern: 1, PhaseExtend: 1, PhasePrecalc: 1, PhaseFilter: 1, PhaseSolve: 1},
		VariantFull: {PhaseBasePattern: 1, PhaseExtend: 2, PhasePrecalc: 2, PhaseFilter: 2, PhaseSolve: 1},
	}
	for v, want := range wantCounts {
		opts := DefaultOptions()
		opts.Variant = v
		p, err := Compute(a, opts)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		got := map[string]int{}
		for _, ph := range p.Stats.Phases {
			got[ph.Name]++
		}
		for name, n := range want {
			if got[name] != n {
				t.Errorf("%s: phase %q count %d, want %d (all: %v)", v, name, got[name], n, got)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: unexpected phases: %v (want %v)", v, got, want)
		}
		for name := range want {
			if p.Stats.PhaseNS(name) < 0 {
				t.Errorf("%s: PhaseNS(%q) negative", v, name)
			}
		}
		if p.Stats.PhaseNS("no-such-phase") != 0 {
			t.Errorf("%s: unknown phase should report 0", v)
		}
	}
}

// TestSetupTracerSpans checks that a configured tracer sees the same phase
// structure as SetupStats.Phases, nested under one root span per setup.
func TestSetupTracerSpans(t *testing.T) {
	a := matgen.Laplace2D(16, 16)
	var sink strings.Builder
	tr := telemetry.NewTracer(&sink)
	opts := DefaultOptions()
	opts.Variant = VariantFull
	opts.Tracer = tr
	p, err := Compute(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	report := tr.Report()
	if len(report) != 1 {
		t.Fatalf("root spans = %d, want 1", len(report))
	}
	root := report[0]
	if !strings.Contains(root.Name, "FSAIE(full)") {
		t.Errorf("root span name %q should carry the variant", root.Name)
	}
	if len(root.Children) != len(p.Stats.Phases) {
		t.Fatalf("tracer children %d != recorded phases %d", len(root.Children), len(p.Stats.Phases))
	}
	for i, c := range root.Children {
		if c.Name != p.Stats.Phases[i].Name {
			t.Errorf("span %d = %q, phase %q", i, c.Name, p.Stats.Phases[i].Name)
		}
	}
	if !strings.Contains(sink.String(), PhaseExtend) {
		t.Errorf("sink rendering missing phases:\n%s", sink.String())
	}
}

func TestExtensionPatternAndPublishSetupStats(t *testing.T) {
	a := matgen.Laplace2D(16, 16)
	opts := DefaultOptions()
	opts.Variant = VariantFull
	opts.Filter = 0 // keep the full extension so fill-in is guaranteed
	p, err := Compute(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p.BasePattern.SubsetOf(p.FinalPattern) {
		t.Fatal("the final pattern lost base entries")
	}
	if fill := p.FinalPattern.NNZ() - p.BasePattern.NNZ(); fill <= 0 {
		t.Fatalf("fill-in %d at filter 0, want > 0", fill)
	}

	reg := telemetry.NewRegistry()
	PublishSetupStats(reg, p.Stats.Phases[0].Name+"-unused", nil) // nil stats: no-op
	PublishSetupStats(nil, "FSAIE(full)", &p.Stats)               // nil registry: no-op
	PublishSetupStats(reg, "FSAIE(full)", &p.Stats)
	snap := reg.Snapshot()
	if snap.Counters[`fsai.setups{variant="FSAIE(full)"}`] != 1 {
		t.Errorf("setup counter: %+v", snap.Counters)
	}
	got := snap.Counters[`fsai.setup.phase_ns{phase="extend",variant="FSAIE(full)"}`]
	if want := p.Stats.PhaseNS(PhaseExtend); got != want {
		t.Errorf("extend phase ns = %d, want %d", got, want)
	}
}
