// Command bench is the repository's benchmark. One process runs one
// workload for a fixed time, checks every answer it gets, prints each
// metric as "name value unit" and ends with a one-line JSON summary:
//
//	bash bench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command and fsaid from the tree it sits in. An
// untraced run reports the end-to-end metrics. With -trace 1 the separate
// traced run times calls into each layer's public functions from this
// package, reports the per-layer metrics and writes its spans under
// -trace-dir. README.md lists the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fsaid    string // fsaid binary, for the daemon workloads
	work     string // scratch directory for daemon data
	traceDir string
	// summary is the metrics the closing JSON line carries: BENCHMARK.json's
	// end_to_end list, or its per_layer list for a traced run.
	summary []metricDef
	// setupReps is how many set-ups an untraced run makes; setup_s is
	// their median. triadMiB, when positive, replaces the triad array size
	// derived from the last-level cache. Both are smaller in the smoke
	// test.
	setupReps int
	triadMiB  int
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workloads maps each workload name to its driver.
var workloads = map[string]func(config, *report) error{
	"suite-cold":   suiteCold,
	"large-warm":   largeWarm,
	"daemon-warm":  daemonWarm,
	"daemon-mixed": daemonMixed,
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "triad" {
		mib, err := strconv.Atoi(os.Args[2])
		if err == nil {
			err = runTriad(mib)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench triad:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{setupReps: 5}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	flag.StringVar(&cfg.fsaid, "fsaid", "", "fsaid binary (daemon workloads)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for daemon data (default: a new temporary directory)")
	flag.StringVar(&cfg.traceDir, "trace-dir", "traces", "directory for the traced run's spans")
	flag.Parse()
	cfg.trace = trace == 1
	// run.sh starts the benchmark from the repository root.
	c, err := loadContract("BENCHMARK.json")
	if err == nil {
		cfg.summary = c.EndToEnd
		if cfg.trace {
			cfg.summary = c.PerLayer
		}
		err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run measures one workload and writes its metrics to out.
func run(cfg config, out io.Writer) error {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if cfg.work == "" {
		dir, err := os.MkdirTemp("", "bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.work = dir
	} else if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	rep := newReport()
	if cfg.trace {
		// The traced run reports no set-up time, so one set-up suffices.
		cfg.setupReps = 1
		if err := hostRoof(rep, cfg.triadMiB); err != nil {
			return err
		}
	}
	if err := drive(cfg, rep); err != nil {
		return err
	}
	if cfg.trace {
		path, err := rep.writeTrace(cfg.traceDir, cfg.workload, cfg.seed)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "bench: spans written to", path)
	}
	return rep.write(out, cfg.summary)
}
