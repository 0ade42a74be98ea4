package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// reportCampaign runs a tiny telemetry-enabled campaign on one suite matrix.
func reportCampaign(t *testing.T) (*RawCampaign, *telemetry.Registry) {
	t.Helper()
	specs := matgen.QuickSuite()[:1]
	reg := telemetry.NewRegistry()
	raw, err := RunRaw(specs, RawOptions{
		L1:            arch.Skylake().L1Sim,
		Filters:       []float64{0.01},
		RecordHistory: true,
		CollectTiming: true,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw, reg
}

func TestRunReportRoundTrip(t *testing.T) {
	raw, reg := reportCampaign(t)
	rep := BuildRunReport(raw, "fsaibench-test", "Skylake", reg)

	// One FSAI + one Sp + one Full entry per matrix at a single filter.
	if want := 3 * len(raw.Results); len(rep.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(rep.Entries), want)
	}
	var sawPhases, sawHistory, sawTiming bool
	for _, e := range rep.Entries {
		if e.Iterations <= 0 || e.Rows <= 0 || e.NNZG <= 0 {
			t.Fatalf("entry not populated: %+v", e)
		}
		if len(e.SetupPhases) > 0 {
			sawPhases = true
		}
		if len(e.History) == int(e.Iterations)+1 {
			sawHistory = true
		}
		if e.Timing != nil && e.Timing.SpMVNS > 0 && e.Timing.BLAS1NS > 0 {
			sawTiming = true
		}
	}
	if !sawPhases || !sawHistory || !sawTiming {
		t.Fatalf("report missing phases=%v history=%v timing=%v", sawPhases, sawHistory, sawTiming)
	}
	if rep.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
	for _, name := range []string{"krylov.iter.spmv_ns", "krylov.iter.precond_ns", "krylov.iter.blas1_ns"} {
		h, ok := rep.Metrics.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("timing histogram %q missing or empty", name)
		}
	}

	// Round-trip: write then decode, field-for-field on a sample entry.
	var buf bytes.Buffer
	if err := WriteRunReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != RunReportSchemaVersion || got.Tool != "fsaibench-test" || got.Machine != "Skylake" {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != len(rep.Entries) {
		t.Fatalf("entries lost in round trip: %d vs %d", len(got.Entries), len(rep.Entries))
	}
	a, b := rep.Entries[0], got.Entries[0]
	if a.Matrix != b.Matrix || a.Variant != b.Variant || a.Iterations != b.Iterations ||
		len(a.History) != len(b.History) || len(a.SetupPhases) != len(b.SetupPhases) {
		t.Fatalf("entry mismatch:\n  wrote %+v\n  read  %+v", a, b)
	}
	if a.Timing != nil && (b.Timing == nil || *a.Timing != *b.Timing) {
		t.Fatalf("timing mismatch: %+v vs %+v", a.Timing, b.Timing)
	}
	if got.Metrics.Counters["krylov.iterations"] != rep.Metrics.Counters["krylov.iterations"] {
		t.Fatal("metrics counters lost in round trip")
	}
}

func TestRunReportRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadRunReport(strings.NewReader(`{"schema_version": 99, "tool": "x"}`)); err == nil {
		t.Fatal("unknown schema version must be rejected")
	}
	if _, err := ReadRunReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestRunReportPhasesMatchVariant(t *testing.T) {
	raw, _ := reportCampaign(t)
	rep := BuildRunReport(raw, "t", "Skylake", nil)
	for _, e := range rep.Entries {
		names := map[string]int{}
		for _, p := range e.SetupPhases {
			names[p.Name]++
		}
		if names[fsai.PhaseBasePattern] != 1 || names[fsai.PhaseSolve] != 1 {
			t.Fatalf("%s: phase counts %v", e.Variant, names)
		}
		switch e.Variant {
		case "FSAI":
			if names[fsai.PhaseExtend] != 0 {
				t.Fatalf("FSAI should not extend: %v", names)
			}
		case "FSAIE(sp)":
			if names[fsai.PhaseExtend] != 1 || names[fsai.PhasePrecalc] != 1 || names[fsai.PhaseFilter] != 1 {
				t.Fatalf("FSAIE(sp) phases %v", names)
			}
		case "FSAIE(full)":
			if names[fsai.PhaseExtend] != 2 || names[fsai.PhasePrecalc] != 2 || names[fsai.PhaseFilter] != 2 {
				t.Fatalf("FSAIE(full) phases %v", names)
			}
		}
	}
	for _, e := range rep.Entries {
		if e.SolveWallNS <= 0 {
			t.Fatalf("%s: solve wall time %d, want > 0", e.Variant, e.SolveWallNS)
		}
	}
}

func TestRunReportCacheSection(t *testing.T) {
	specs := matgen.QuickSuite()[:1]
	reg := telemetry.NewRegistry()
	raw, err := RunRaw(specs, RawOptions{
		L1:                 arch.Skylake().L1Sim,
		Filters:            []float64{0.01},
		Metrics:            reg,
		CollectCacheAttrib: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildRunReport(raw, "t", "Skylake", reg)
	for _, e := range rep.Entries {
		c := e.Cache
		if c == nil {
			t.Fatalf("%s/%s: cache section missing", e.Matrix, e.Variant)
		}
		if c.LineBytes != arch.Skylake().L1Sim.LineBytes || c.BlockRows <= 0 {
			t.Fatalf("cache geometry: %+v", c)
		}
		if len(c.Sweeps) != 2 || c.Sweeps[0].Phase != "G" || c.Sweeps[1].Phase != "GT" {
			t.Fatalf("sweeps: %+v", c.Sweeps)
		}
		// The attribution must agree with the unattributed trace already in
		// the entry: total misses and the Figure 3 metric line up.
		var mr *MatrixRaw
		for i := range raw.Results {
			if raw.Results[i].Spec.Name == e.Matrix {
				mr = &raw.Results[i]
			}
		}
		var m *MethodRaw
		switch e.Variant {
		case "FSAI":
			m = &mr.FSAI
		case "FSAIE(sp)":
			m = &mr.Sp[0]
		case "FSAIE(full)":
			m = &mr.Full[0]
		}
		if got := c.Sweeps[0].BaseMisses + c.Sweeps[0].FillMisses; got != m.MissG {
			t.Errorf("%s: attributed G misses %d != traced %d", e.Variant, got, m.MissG)
		}
		if got := c.Sweeps[1].BaseMisses + c.Sweeps[1].FillMisses; got != m.MissGT {
			t.Errorf("%s: attributed GT misses %d != traced %d", e.Variant, got, m.MissGT)
		}
		if diff := c.SimMissPerNNZ - m.MissPerNNZ; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: sim miss/nnz %g != %g", e.Variant, c.SimMissPerNNZ, m.MissPerNNZ)
		}
		if c.ModelLineVisitsPerNNZ <= 0 {
			t.Errorf("%s: model line visits per nnz not populated", e.Variant)
		}
		if e.Variant == "FSAI" && (c.Sweeps[0].FillEntries != 0 || c.Sweeps[1].FillEntries != 0) {
			t.Errorf("FSAI has no fill-in, got %+v", c.Sweeps)
		}
	}

	// The attribution series land in the shared registry.
	snap := reg.Snapshot()
	var sawAttrib bool
	for name := range snap.Counters {
		if strings.HasPrefix(name, "cachesim.x_misses{") {
			sawAttrib = true
		}
	}
	if !sawAttrib {
		t.Error("cachesim.x_misses counters missing from registry")
	}

	// Round trip preserves the cache section exactly.
	var buf bytes.Buffer
	if err := WriteRunReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep.Entries[0].Cache, got.Entries[0].Cache
	if b == nil || a.SimMissPerNNZ != b.SimMissPerNNZ || len(a.Sweeps) != len(b.Sweeps) ||
		a.Sweeps[0].BaseMisses != b.Sweeps[0].BaseMisses ||
		len(a.Sweeps[0].RowBlockMisses) != len(b.Sweeps[0].RowBlockMisses) {
		t.Fatalf("cache section round trip:\n  wrote %+v\n  read  %+v", a, b)
	}
}

func TestRunReportUpgradesV1(t *testing.T) {
	// A v1 document (no cache sections) must load and come back stamped with
	// the current schema version.
	v1 := `{
  "schema_version": 1,
  "tool": "fsaibench",
  "machine": "Skylake",
  "line_bytes": 64,
  "entries": [
    {
      "matrix_id": 1, "matrix": "lap2d", "rows": 100, "nnz": 460,
      "variant": "FSAI", "filter": 0, "nnz_g": 280, "ext_pct": 0,
      "iterations": 42, "converged": true,
      "setup_wall_ns": 1000, "solve_wall_ns": 2000
    }
  ]
}`
	r, err := ReadRunReport(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
	if r.Schema != RunReportSchemaVersion {
		t.Errorf("schema not upgraded: %d", r.Schema)
	}
	if len(r.Entries) != 1 || r.Entries[0].Iterations != 42 || r.Entries[0].Cache != nil {
		t.Errorf("v1 entry mangled: %+v", r.Entries)
	}
	// Versions outside [min, current] still fail loudly.
	if _, err := ReadRunReport(strings.NewReader(`{"schema_version": 0}`)); err == nil {
		t.Error("v0 must be rejected")
	}
	future := fmt.Sprintf(`{"schema_version": %d}`, RunReportSchemaVersion+1)
	if _, err := ReadRunReport(strings.NewReader(future)); err == nil {
		t.Error("future schema must be rejected")
	}
}

func TestWriteRunReportFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	rep := &RunReport{Tool: "t", Entries: []RunEntry{{Matrix: "m", Iterations: 5}}}
	if err := WriteRunReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Iterations != 5 {
		t.Fatalf("read back: %+v", got)
	}

	// Failure mid-write must leave the existing file untouched: writing to a
	// path whose directory has vanished errors without clobbering anything,
	// and no temp litter remains after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file litter: %v", entries)
	}
	if err := WriteRunReportFile(filepath.Join(dir, "missing", "r.json"), rep); err == nil {
		t.Fatal("write into missing directory should fail")
	}
	if again, err := ReadRunReportFile(path); err != nil || again.Entries[0].Iterations != 5 {
		t.Fatalf("original report damaged: %v %+v", err, again)
	}
}

func TestRunReportUpgradesV2(t *testing.T) {
	// A v2 document (cache sections, no status/resilience) must load
	// unchanged: the v3 additions are optional.
	v2 := `{
  "schema_version": 2,
  "tool": "fsaibench",
  "entries": [
    {
      "matrix_id": 1, "matrix": "lap2d", "rows": 100, "nnz": 460,
      "variant": "FSAI", "filter": 0, "nnz_g": 280, "ext_pct": 0,
      "iterations": 42, "converged": true,
      "setup_wall_ns": 1000, "solve_wall_ns": 2000,
      "cache": {"line_bytes": 64, "block_rows": 1, "sweeps": [], "sim_miss_per_nnz": 0.5}
    }
  ]
}`
	r, err := ReadRunReport(strings.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 report rejected: %v", err)
	}
	if r.Schema != RunReportSchemaVersion {
		t.Errorf("schema not upgraded: %d", r.Schema)
	}
	e := r.Entries[0]
	if e.Cache == nil || e.Cache.SimMissPerNNZ != 0.5 {
		t.Errorf("v2 cache section mangled: %+v", e.Cache)
	}
	if e.Status != "" || e.Resilience != nil {
		t.Errorf("upgraded v2 entry invented v3 data: %+v", e)
	}
}

func TestRunReportResilienceSection(t *testing.T) {
	out := &resilience.Outcome{
		Precond:   "jacobi",
		Shift:     0,
		Recovered: true,
	}
	out.Log.Retries = 2
	out.Log.Fallbacks = 3
	out.Log.Attempts = []resilience.Attempt{
		{Stage: "setup", Precond: "fsaie", Status: "error:not-spd", Err: "boom", NS: 10},
		{Stage: "setup", Precond: "jacobi", Status: "ok", NS: 5},
		{Stage: "solve", Precond: "jacobi", Status: "converged", Iterations: 40, RelRes: 1e-9, NS: 100},
	}
	rep := &RunReport{
		Tool: "fsaisolve",
		Entries: []RunEntry{{
			Matrix:     "lap2d",
			Iterations: 40,
			Converged:  true,
			Status:     "converged",
			Resilience: RunResilienceOf("fsaie", out),
		}},
	}
	var buf bytes.Buffer
	if err := WriteRunReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := got.Entries[0]
	if e.Status != "converged" {
		t.Errorf("status lost: %+v", e)
	}
	rs := e.Resilience
	if rs == nil || rs.Requested != "fsaie" || rs.Final != "jacobi" ||
		rs.Retries != 2 || rs.Fallbacks != 3 || !rs.Recovered {
		t.Fatalf("resilience section mangled: %+v", rs)
	}
	if len(rs.Attempts) != 3 || rs.Attempts[0].Status != "error:not-spd" ||
		rs.Attempts[2].Iterations != 40 {
		t.Fatalf("attempt log mangled: %+v", rs.Attempts)
	}
	if RunResilienceOf("fsaie", nil) != nil {
		t.Errorf("nil outcome should map to nil section")
	}
}
