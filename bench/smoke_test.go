package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// traced run starts its triad probe as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "triad" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs every workload for about a second, untraced
// and traced, and checks that each run verifies its answers and prints
// every metric BENCHMARK.json names: run fails when one is missing or has
// another unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fsaid and runs every workload")
	}
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	fsaidBin := filepath.Join(t.TempDir(), "fsaid")
	build := exec.Command("go", "build", "-o", fsaidBin, "./cmd/fsaid")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fsaid: %v\n%s", err, out)
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				if traced && w.Name == "large-warm" {
					// Its set-up takes most of the test's time budget, and
					// suite-cold and the daemon workloads cover the traced
					// code it would run.
					continue
				}
				cfg := config{workload: w.Name, seed: 1, seconds: 1, trace: traced, fsaid: fsaidBin,
					work: t.TempDir(), traceDir: t.TempDir(), summary: c.EndToEnd, setupReps: 1, triadMiB: 16}
				if traced {
					cfg.summary = c.PerLayer
				}
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("traced=%v: last line is not the summary: %v", traced, err)
				}
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, s.Correct, s.Attempted, s.Failed)
				}
				if traced {
					if _, err := os.Stat(filepath.Join(cfg.traceDir, w.Name+"-seed1.json")); err != nil {
						t.Errorf("no spans file: %v", err)
					}
				}
			}
		})
	}
}
