package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/prof"
	"repro/internal/prof/proftest"
	"repro/internal/roofline"
	"repro/internal/telemetry"
)

// TestProfilesEndpointNilSampler: a server mounted without a sampler must
// still answer /profiles with valid JSON (enabled=false), never 5xx.
func TestProfilesEndpointNilSampler(t *testing.T) {
	srv := NewServer(Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, _, body := get(t, hs.URL+"/profiles")
	if code != 200 {
		t.Fatalf("/profiles without sampler: status %d", code)
	}
	var idx struct {
		Enabled bool              `json:"enabled"`
		Windows []json.RawMessage `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if idx.Enabled || len(idx.Windows) != 0 {
		t.Fatalf("expected disabled empty index, got %s", body)
	}
	if code, _, _ := get(t, hs.URL+"/profiles/1"); code != 404 {
		t.Fatalf("/profiles/1 without sampler: status %d, want 404", code)
	}
}

// TestProfilesEndpointServesWindows: index, per-window metadata, raw profile
// downloads that `go tool pprof` reads, and 404s for missing windows and
// unknown kinds (mutex included: the sampler takes no mutex snapshot).
func TestProfilesEndpointServesWindows(t *testing.T) {
	sampler := prof.NewSampler(prof.Options{Capacity: 4})
	srv := NewServer(Options{Profiles: sampler})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := sampler.Capture(30 * time.Millisecond)
	if w == nil || w.ID == 0 {
		t.Fatalf("capture: %+v", w)
	}

	code, _, body := get(t, hs.URL+"/profiles")
	if code != 200 {
		t.Fatalf("/profiles: status %d", code)
	}
	var idx struct {
		Enabled bool `json:"enabled"`
		Windows []struct {
			ID uint64 `json:"id"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("bad index JSON: %v", err)
	}
	if !idx.Enabled || len(idx.Windows) != 1 || idx.Windows[0].ID != w.ID {
		t.Fatalf("index: %s", body)
	}

	code, _, body = get(t, hs.URL+"/profiles/1")
	if code != 200 {
		t.Fatalf("/profiles/1: status %d", code)
	}
	var detail struct {
		Window struct {
			ID uint64 `json:"id"`
		} `json:"window"`
	}
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("bad detail JSON: %v", err)
	}
	if detail.Window.ID != w.ID {
		t.Fatalf("detail window id = %d, want %d", detail.Window.ID, w.ID)
	}

	for _, kind := range []string{"cpu", "heap", "goroutine"} {
		code, hdr, raw := get(t, hs.URL+"/profiles/1/"+kind)
		if code != 200 {
			t.Fatalf("/profiles/1/%s: status %d", kind, code)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("/profiles/1/%s content-type %q", kind, ct)
		}
		proftest.Raw(t, []byte(raw))
	}

	for _, path := range []string{"/profiles/99", "/profiles/1/bogus", "/profiles/1/mutex", "/profiles/notanumber"} {
		if code, _, _ := get(t, hs.URL+path); code != 404 {
			t.Fatalf("%s: status %d, want 404", path, code)
		}
	}
}

// TestProfilesServeTheSamplerSeries: /profiles and /metrics serve one set
// of sampler numbers. The overhead is the gauge set at the end of the last
// window, so a read between windows gets the same value from both; the
// window counts are the ring's.
func TestProfilesServeTheSamplerSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	sampler := prof.NewSampler(prof.Options{Capacity: 2, Registry: reg})
	srv := NewServer(Options{Registry: reg, Profiles: sampler})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for range 3 {
		sampler.Capture(20 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // between windows: wall time moves on
	_, _, body := get(t, hs.URL+"/profiles")
	var idx struct {
		OverheadPct float64           `json:"overhead_pct"`
		Windows     []json.RawMessage `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("bad index JSON: %v", err)
	}
	_, _, text := get(t, hs.URL+"/metrics")
	sample := func(name string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("%s missing from /metrics", name)
		return 0
	}
	if got := sample("prof_overhead_pct"); idx.OverheadPct != got || got <= 0 {
		t.Errorf("/profiles overhead_pct %v, prof_overhead_pct %v: want one positive number", idx.OverheadPct, got)
	}
	if got := sample("prof_windows_captured"); got != 3 {
		t.Errorf("prof_windows_captured = %v, want 3", got)
	}
	if got := sample("prof_windows_retained"); got != 2 || len(idx.Windows) != 2 {
		t.Errorf("prof_windows_retained = %v, /profiles lists %d windows; the ring holds 2", got, len(idx.Windows))
	}
}

// TestRooflineEndpoint: machine roofs and per-matrix state as JSON.
func TestRooflineEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon := NewRooflineMonitor(arch.Skylake(), reg)
	srv := NewServer(Options{Registry: reg, Roofline: mon})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	mon.Observe("j-000001", "cafe0123456789ab", 10, []roofline.Achieved{{
		Kernel:                 roofline.KernelSpMV,
		Flops:                  2e9,
		Bytes:                  16e9,
		Seconds:                0.1,
		AchievedFlops:          2e10,
		AchievedBandwidthBytes: 1.6e11,
	}})

	code, _, body := get(t, hs.URL+"/roofline")
	if code != 200 {
		t.Fatalf("/roofline: status %d", code)
	}
	var rep RooflineReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Machine.Name != "Skylake" || rep.Machine.BandwidthBytes != 256e9 {
		t.Fatalf("machine: %+v", rep.Machine)
	}
	if len(rep.Matrices) != 1 || rep.Matrices[0].Latest.JobID != "j-000001" {
		t.Fatalf("matrices: %+v", rep.Matrices)
	}

	// An unconfigured monitor still answers valid JSON, never 5xx.
	bare := NewServer(Options{})
	hb := httptest.NewServer(bare.Handler())
	defer hb.Close()
	code, _, body = get(t, hb.URL+"/roofline")
	if code != 200 {
		t.Fatalf("/roofline without monitor: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
}

// TestRooflineLowBandwidthFlagging: the rolling baseline flags a solve >30%
// below it only after enough observations, and the flag counter increments.
func TestRooflineLowBandwidthFlagging(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon := NewRooflineMonitor(arch.Skylake(), reg)
	est := func(bw float64) []roofline.Achieved {
		return []roofline.Achieved{{
			Kernel:                 roofline.KernelSpMV,
			AchievedFlops:          bw / 8,
			AchievedBandwidthBytes: bw,
		}}
	}
	for i := 0; i < 3; i++ {
		rs := mon.Observe("", "fp1", 10, est(100e9))
		if rs.LowBandwidth {
			t.Fatalf("solve %d flagged before baseline established", i)
		}
	}
	// 50 GB/s against a ~100 GB/s baseline: well past the 30% threshold.
	rs := mon.Observe("", "fp1", 10, est(50e9))
	if !rs.LowBandwidth {
		t.Fatalf("slow solve not flagged: %+v", rs)
	}
	// A healthy solve right after is not flagged (baseline folded the slow
	// one in, but 100 vs ~85 EWMA is above 70%).
	rs = mon.Observe("", "fp1", 10, est(100e9))
	if rs.LowBandwidth {
		t.Fatalf("healthy solve flagged: %+v", rs)
	}
	rep := mon.Report()
	if len(rep.Matrices) != 1 || rep.Matrices[0].LowBandwidthSolves != 1 {
		t.Fatalf("report: %+v", rep.Matrices)
	}
}

// TestCPUProfileDuringSamplerWindow: while a sampler window holds the
// process's one CPU profile, /debug/pprof/profile answers 503 rather than
// net/http/pprof's 500 "cpu profiling already in use", with Retry-After
// set to the seconds left in the window and a body that names the window
// by its start and points at /profiles, which then lists that window with
// its CPU profile. Once the sampler stops, the stdlib profile runs.
func TestCPUProfileDuringSamplerWindow(t *testing.T) {
	sp := prof.NewSampler(prof.Options{Window: 2 * time.Second, Gap: time.Hour})
	hs := httptest.NewServer(NewServer(Options{Profiles: sp}).Handler())
	defer hs.Close()
	sp.Start()
	defer sp.Stop()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, _, held := sp.CPUWindow(); held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sampler's first window never held the CPU profile")
		}
	}
	code, hdr, body := get(t, hs.URL+"/debug/pprof/profile?seconds=1")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("profile during a sampler window: status %d %q, want 503", code, body)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 || secs > 2 {
		t.Fatalf("Retry-After %q, want 1 or 2 seconds", hdr.Get("Retry-After"))
	}
	if !strings.Contains(body, "/profiles") {
		t.Fatalf("503 body %q does not point at /profiles", body)
	}

	sp.Stop()
	_, _, raw := get(t, hs.URL+"/profiles")
	var idx struct {
		Windows []struct {
			Start      string `json:"start"`
			CPUSkipped bool   `json:"cpu_skipped"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(raw), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Windows) != 1 || idx.Windows[0].CPUSkipped || !strings.Contains(body, idx.Windows[0].Start) {
		t.Fatalf("503 body %q does not name the one captured window of %s", body, raw)
	}
	if code, _, body := get(t, hs.URL+"/debug/pprof/profile?seconds=1"); code != http.StatusOK {
		t.Fatalf("profile after the sampler stopped: status %d %q, want 200", code, body)
	}
}
