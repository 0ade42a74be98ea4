// Command fsaibench runs the paper's evaluation campaign and regenerates
// its tables and figures.
//
// Usage:
//
//	fsaibench [flags]
//
//	-table N       print table N (1,2,3,4,5); repeatable as comma list
//	-figure N      print figure N (2,3,4,5,6,7); repeatable as comma list
//	-all           print every table and figure
//	-quick         use the 10-matrix quick suite instead of the full 72
//	-arch NAME     restrict to one machine (Skylake, POWER9, A64FX)
//	-ablation LIST run ablations: align,linesize,power,precond,order,adaptive,roofline,spectrum,fem,fig3 or all
//	-matrix NAME   suite matrix for single-matrix ablations
//	-nrhs K        multi-RHS amortization campaign: solve -matrix (or the
//	               quick suite with -quick) for K right-hand sides, as K
//	               scalar solves and as one K-column block solve, and print
//	               the per-RHS wall times, amortization factor, and whether
//	               the block columns reproduced the scalar solutions
//	               bitwise (exit 1 if any did not); with -metrics-out,
//	               writes a run report whose entries carry nrhs
//	-json PREFIX   also write per-machine results as <prefix>-<machine>.json
//	-host          also print the measured host wall-clock table
//	-v             progress output while the campaign runs
//	-trace         stream per-setup phase span trees to stderr
//	-metrics-out F write a versioned machine-readable run report (JSON) to F:
//	               per-phase setup spans, per-iteration residual histories,
//	               SpMV/precond/BLAS-1 timing histograms, per-entry
//	               cache-miss attribution
//	-listen ADDR   serve the live observability endpoints (/metrics,
//	               /debug/solve, /debug/pprof/) while the campaign runs
//	-timeout D     overall campaign wall-clock budget (e.g. 10m); on expiry
//	               the running solve stops cooperatively and the tool exits
//	               with an error instead of publishing partial tables
//
// Tables 1-3 and Figures 2-4 are Skylake artifacts; Table 4/Figure 5 are
// POWER9; Table 5/Figure 6 are A64FX; Figure 7 spans all three. The tool
// runs the minimal set of raw campaigns the requested artifacts need (the
// 64-byte raw run is shared by Skylake and POWER9).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func main() {
	var (
		tablesFlag  = flag.String("table", "", "comma-separated table numbers (1-5)")
		figuresFlag = flag.String("figure", "", "comma-separated figure numbers (2-7)")
		allFlag     = flag.Bool("all", false, "print every table and figure")
		quickFlag   = flag.Bool("quick", false, "use the quick 10-matrix suite")
		archFlag    = flag.String("arch", "", "restrict to one machine (Skylake, POWER9, A64FX)")
		ablations   = flag.String("ablation", "", "comma-separated ablations: align,linesize,power,precond,order,adaptive,roofline,spectrum,fem,fig3 or all")
		matrixFlag  = flag.String("matrix", "jump64x64-b8-j1e3", "suite matrix for single-matrix ablations")
		nrhsFlag    = flag.Int("nrhs", 0, "multi-RHS amortization campaign with this many right-hand sides (>= 2)")
		jsonPrefix  = flag.String("json", "", "write per-machine campaign results as <prefix>-<machine>.json")
		hostTable   = flag.Bool("host", false, "also print measured host wall-clock FSAI vs FSAIE table")
		verbose     = flag.Bool("v", false, "progress output")
		traceFlag   = flag.Bool("trace", false, "stream per-setup phase span trees to stderr")
		metricsOut  = flag.String("metrics-out", "", "write a machine-readable run report (JSON) to this file")
		listenAddr  = flag.String("listen", "", "serve observability endpoints on this address while the campaign runs")
		timeout     = flag.Duration("timeout", 0, "overall campaign wall-clock budget (0: none)")
	)
	flag.Parse()
	var need64Host bool

	tables, err := parseList(*tablesFlag)
	if err != nil {
		fatal("bad -table: %v", err)
	}
	figures, err := parseList(*figuresFlag)
	if err != nil {
		fatal("bad -figure: %v", err)
	}
	if *allFlag {
		tables = []int{1, 2, 3, 4, 5}
		figures = []int{2, 3, 4, 5, 6, 7}
	}
	if *hostTable {
		need64Host = true
	}
	if len(tables) == 0 && len(figures) == 0 && *ablations == "" && !*hostTable &&
		*metricsOut == "" && *nrhsFlag == 0 {
		flag.Usage()
		os.Exit(2)
	}

	specs := matgen.Suite()
	if *quickFlag {
		specs = matgen.QuickSuite()
	}

	if *nrhsFlag != 0 {
		if *nrhsFlag < 2 {
			fatal("-nrhs must be >= 2, got %d", *nrhsFlag)
		}
		runMultiRHS(*nrhsFlag, *matrixFlag, *quickFlag, *metricsOut, *verbose, *timeout)
		return
	}

	if *ablations != "" {
		runAblations(*ablations, *matrixFlag, specs)
	}

	want := func(name string) bool { return *archFlag == "" || *archFlag == name }
	need64 := need64Host
	need256 := false
	needRandom := contains(figures, 3) || contains(figures, 4)
	needStandard := contains(tables, 3)
	for _, tb := range tables {
		switch tb {
		case 1, 2, 3:
			need64 = need64 || want("Skylake")
		case 4:
			need64 = need64 || want("POWER9")
		case 5:
			need256 = need256 || want("A64FX")
		default:
			fatal("unknown table %d", tb)
		}
	}
	for _, fg := range figures {
		switch fg {
		case 2, 3, 4:
			need64 = need64 || want("Skylake")
		case 5:
			need64 = need64 || want("POWER9")
		case 6:
			need256 = need256 || want("A64FX")
		case 7:
			need64 = need64 || want("Skylake") || want("POWER9")
			need256 = need256 || want("A64FX")
		default:
			fatal("unknown figure %d", fg)
		}
	}

	// A run report needs a campaign even when no table or figure was asked
	// for; it follows the -arch selection (A64FX reports the 256-byte run).
	reportMachine := "Skylake"
	if *metricsOut != "" {
		if *archFlag == "A64FX" {
			need256 = true
			reportMachine = "A64FX"
		} else {
			need64 = true
			if *archFlag == "POWER9" {
				reportMachine = "POWER9"
			}
		}
	}

	var metrics *telemetry.Registry
	var tracer *telemetry.Tracer
	if *metricsOut != "" || *listenAddr != "" {
		metrics = telemetry.NewRegistry()
	}
	if *traceFlag {
		tracer = telemetry.NewTracer(os.Stderr)
	}

	var watcher *obs.SolveWatcher
	if *listenAddr != "" {
		watcher = obs.NewSolveWatcher()
		srv := obs.NewServer(obs.Options{Registry: metrics, Watcher: watcher})
		addr, err := srv.Start(*listenAddr)
		if err != nil {
			fatal("listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "observability server listening on http://%s\n", addr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var progress *os.File
	if *verbose {
		progress = os.Stderr
	}
	run := func(m arch.Arch) *experiments.RawCampaign {
		opts := experiments.RawOptions{
			Ctx:                ctx,
			L1:                 m.L1Sim,
			WithRandom:         needRandom,
			WithStandard:       needStandard,
			RecordHistory:      *metricsOut != "",
			CollectTiming:      *metricsOut != "" || *listenAddr != "",
			Metrics:            metrics,
			CollectCacheAttrib: *metricsOut != "",
			Tracer:             tracer,
		}
		if watcher != nil {
			opts.ProgressDetail = watcher.ProgressDetail
		}
		if progress != nil {
			opts.Progress = progress
			fmt.Fprintf(progress, "== raw campaign: %d-byte lines, %d matrices ==\n", m.LineBytes, len(specs))
		}
		raw, err := experiments.RunRaw(specs, opts)
		if err != nil {
			fatal("campaign failed: %v", err)
		}
		return raw
	}

	var sky, p9, a64 *experiments.PricedCampaign
	var raw64, raw256 *experiments.RawCampaign
	if need64 {
		raw := run(arch.Skylake())
		raw64 = raw
		if want("Skylake") {
			sky = experiments.Price(raw, arch.Skylake())
		}
		if want("POWER9") {
			p9 = experiments.Price(raw, arch.POWER9())
		}
	}
	if need256 {
		raw256 = run(arch.A64FX())
		if want("A64FX") {
			a64 = experiments.Price(raw256, arch.A64FX())
		}
	}

	if *metricsOut != "" {
		rawReport := raw64
		if reportMachine == "A64FX" {
			rawReport = raw256
		}
		rep := experiments.BuildRunReport(rawReport, "fsaibench", reportMachine, metrics)
		// Atomic write: a mid-run failure must never truncate an existing
		// report on disk.
		if err := experiments.WriteRunReportFile(*metricsOut, rep); err != nil {
			fatal("metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote run report (%d entries) to %s\n", len(rep.Entries), *metricsOut)
	}

	if *jsonPrefix != "" {
		for _, c := range []*experiments.PricedCampaign{sky, p9, a64} {
			if c == nil {
				continue
			}
			path := fmt.Sprintf("%s-%s.json", *jsonPrefix, strings.ToLower(c.Machine.Name))
			f, err := os.Create(path)
			if err != nil {
				fatal("json: %v", err)
			}
			if err := c.WriteJSON(f); err != nil {
				f.Close()
				fatal("json: %v", err)
			}
			if err := f.Close(); err != nil {
				fatal("json: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	out := os.Stdout
	if *hostTable && raw64 != nil {
		fmt.Fprintln(out, experiments.HostWallClockTable(raw64))
	}
	for _, tb := range tables {
		switch {
		case tb == 1 && sky != nil:
			fmt.Fprintln(out, sky.Table1())
		case tb == 2 && sky != nil:
			fmt.Fprintln(out, sky.SummaryTable())
		case tb == 3 && sky != nil:
			fmt.Fprintln(out, sky.Table3())
		case tb == 4 && p9 != nil:
			fmt.Fprintln(out, p9.SummaryTable())
		case tb == 5 && a64 != nil:
			fmt.Fprintln(out, a64.SummaryTable())
		}
	}
	for _, fg := range figures {
		switch {
		case fg == 2 && sky != nil:
			fmt.Fprintln(out, sky.FigureTimeDecrease())
		case fg == 3 && sky != nil:
			fmt.Fprintln(out, sky.Figure3())
		case fg == 4 && sky != nil:
			fmt.Fprintln(out, sky.Figure4())
		case fg == 5 && p9 != nil:
			fmt.Fprintln(out, p9.FigureTimeDecrease())
		case fg == 6 && a64 != nil:
			fmt.Fprintln(out, a64.FigureTimeDecrease())
		case fg == 7:
			var cs []*experiments.PricedCampaign
			for _, c := range []*experiments.PricedCampaign{sky, p9, a64} {
				if c != nil {
					cs = append(cs, c)
				}
			}
			fmt.Fprintln(out, experiments.Figure7(cs))
		}
	}
}

// runMultiRHS runs the -nrhs amortization campaign: the named suite matrix
// (or the quick suite with -quick), each solved for k right-hand sides as k
// scalar solves and as one k-column block solve. It exits non-zero when any
// block column differs bitwise from its scalar solve, after printing the
// table and writing the report.
func runMultiRHS(k int, matrixName string, quick bool, metricsOut string, verbose bool, timeout time.Duration) {
	var specs []matgen.Spec
	if quick {
		specs = matgen.QuickSuite()
	} else {
		spec, ok := matgen.ByName(matrixName)
		if !ok {
			fatal("unknown -matrix %q", matrixName)
		}
		specs = []matgen.Spec{spec}
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	reg := telemetry.NewRegistry()

	opt := experiments.MultiRHSOptions{
		Workers: parallel.MaxWorkers(), Metrics: reg, Ctx: ctx,
	}
	var results []*experiments.MultiRHSResult
	for _, spec := range specs {
		if verbose {
			fmt.Fprintf(os.Stderr, "== multi-RHS: %s, k=%d ==\n", spec.Name, k)
		}
		r, err := experiments.RunMultiRHS(spec, k, opt)
		if err != nil {
			fatal("%v", err)
		}
		results = append(results, r)
	}
	fmt.Print(experiments.MultiRHSTable(results))

	if metricsOut != "" {
		rep := experiments.MultiRHSReport(results, "fsaibench", "host", reg)
		if err := experiments.WriteRunReportFile(metricsOut, rep); err != nil {
			fatal("metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote run report (%d entries) to %s\n", len(rep.Entries), metricsOut)
	}
	var differ []string
	for _, r := range results {
		if !r.BitIdentical {
			differ = append(differ, r.Spec.Name)
		}
	}
	if len(differ) > 0 {
		fatal("block solve columns differ bitwise from their scalar solves: %s", strings.Join(differ, ", "))
	}
}

func runAblations(list, matrixName string, specs []matgen.Spec) {
	spec, ok := matgen.ByName(matrixName)
	if !ok {
		fatal("unknown -matrix %q", matrixName)
	}
	names := strings.Split(list, ",")
	if list == "all" {
		names = []string{"align", "linesize", "power", "precond", "order", "adaptive", "roofline", "spectrum", "fem", "fig3"}
	}
	// The multi-matrix ablations use a capped subset to stay interactive.
	sub := specs
	if len(sub) > 10 {
		sub = matgen.QuickSuite()
	}
	for _, name := range names {
		var out string
		var err error
		switch strings.TrimSpace(name) {
		case "align":
			out, err = experiments.AblationAlignment(spec)
		case "linesize":
			out, err = experiments.AblationLineSize(spec)
		case "power":
			out, err = experiments.AblationPatternPower(spec)
		case "precond":
			out, err = experiments.AblationPreconditioners(sub)
		case "order":
			out, err = experiments.AblationOrdering(spec)
		case "adaptive":
			out, err = experiments.AblationAdaptive(spec)
		case "roofline":
			out, err = experiments.AblationRoofline(spec)
		case "spectrum":
			out, err = experiments.AblationSpectrum(spec)
		case "fem":
			out, err = experiments.AblationFEM()
		case "fig3":
			out, err = experiments.AblationFigure3Histogram(sub)
		default:
			fatal("unknown ablation %q", name)
		}
		if err != nil {
			fatal("ablation %s: %v", name, err)
		}
		fmt.Println(out)
	}
}

func parseList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsaibench: "+format+"\n", args...)
	os.Exit(1)
}
