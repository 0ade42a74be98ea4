// Command fsaisolve is the production entry point of the library: it reads
// an SPD system from a Matrix Market file, builds the requested
// preconditioner and solves with PCG, reporting setup/solve times,
// iteration counts and (optionally) the Lanczos-estimated condition number
// of the preconditioned operator.
//
// Usage:
//
//	fsaisolve [flags] matrix.mtx
//
//	-precond NAME   none|jacobi|bjacobi|ssor|ic0|cheby|fsai|fsaie-sp|fsaie|adaptive (default fsaie)
//	-filter F       FSAIE filter threshold (default 0.01)
//	-line N         cache line size in bytes for the extension (default 64)
//	-power N        initial pattern = lower(Ã^N) (default 1)
//	-tau T          threshold A before powering (default 0)
//	-tol T          PCG relative tolerance (default 1e-8)
//	-maxiter N      PCG iteration cap (default 10000)
//	-rcm            reorder the system with reverse Cuthill-McKee first
//	-rhs FILE       right-hand side, one value per line (default: all ones)
//	-out FILE       write the solution, one value per line
//	-cond           estimate condition numbers with Lanczos (extra cost)
//	-history        print an ASCII convergence plot
//	-trace          print the setup phase span tree and solve breakdown to stderr
//	-metrics-out F  write a machine-readable run report (JSON) to F
//	-align N        pin the x-vector cache-line offset in elements (-1: as allocated)
//	-listen ADDR    serve the observability endpoints (/metrics, /debug/solve,
//	                /debug/pprof/, /runs) on ADDR (":0" picks a free port)
//	-hold           with -listen: keep serving after the solve until SIGINT/SIGTERM
//	-runs-dir DIR   directory served under /runs (default: the -metrics-out directory)
//	-machine NAME   roofline machine model for the achieved-performance
//	                placement: Skylake|POWER9|A64FX (default Skylake)
//	-timeout D      overall solve wall-clock budget (e.g. 30s); on expiry the
//	                solve stops cooperatively at a resumable checkpoint and the
//	                tool exits 3
//	-resilient      route the solve through the adaptive recovery chain
//	                (internal/resilience): diagonal-shift setup retries, then
//	                preconditioner fallback fsaie → fsaie-sp → fsai → jacobi →
//	                none with warm restarts from the best iterate; the recovery
//	                log streams to stderr and lands in the -metrics-out report
//
// SIGINT/SIGTERM cancel a running solve cooperatively (status "cancelled",
// exit 3); a second signal force-kills. With -listen -hold, the first
// signal also drains the observability server gracefully.
//
// Exit status: 0 when the solve converged, 1 on runtime errors (unreadable
// input, preconditioner setup failure), 2 on usage errors, 3 when the solve
// finished without reaching the tolerance — iteration cap, breakdown (with
// -resilient: only after the whole recovery chain is exhausted), or -timeout
// expiry or interruption. Exit 3 is specific to the solver tools.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/cachesim"
	fsai "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/krylov"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/precond"
	"repro/internal/reorder"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/sparse"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		precName   = flag.String("precond", "fsaie", "preconditioner: none|jacobi|bjacobi|ssor|ic0|cheby|fsai|fsaie-sp|fsaie|adaptive")
		filter     = flag.Float64("filter", 0.01, "FSAIE filter threshold")
		line       = flag.Int("line", 64, "cache line size in bytes")
		power      = flag.Int("power", 1, "initial pattern power N of Ã^N")
		tau        = flag.Float64("tau", 0, "threshold for Ã")
		tol        = flag.Float64("tol", 1e-8, "PCG relative residual tolerance")
		maxIter    = flag.Int("maxiter", 10000, "PCG iteration cap")
		useRCM     = flag.Bool("rcm", false, "reorder with reverse Cuthill-McKee")
		rhsPath    = flag.String("rhs", "", "right-hand side file (one value per line)")
		outPath    = flag.String("out", "", "solution output file")
		withCond   = flag.Bool("cond", false, "estimate condition numbers (Lanczos)")
		history    = flag.Bool("history", false, "print convergence plot")
		traceFlag  = flag.Bool("trace", false, "print setup phase spans and solve breakdown to stderr")
		metricsOut = flag.String("metrics-out", "", "write a machine-readable run report (JSON) to this file")
		alignFlag  = flag.Int("align", -1, "pin the x-vector cache-line offset in elements (-1: as allocated)")
		listenAddr = flag.String("listen", "", "serve observability endpoints on this address (\":0\" picks a free port)")
		hold       = flag.Bool("hold", false, "with -listen: keep serving after the solve until SIGINT/SIGTERM")
		runsDir    = flag.String("runs-dir", "", "directory served under /runs (default: the -metrics-out directory)")
		timeout    = flag.Duration("timeout", 0, "overall solve wall-clock budget (0: none); exits 3 on expiry")
		resilient  = flag.Bool("resilient", false, "solve through the adaptive recovery chain (internal/resilience)")
		machineStr = flag.String("machine", "Skylake", "roofline machine model: Skylake|POWER9|A64FX")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the solve cooperatively through krylov
	// Options.Ctx: the solver stops at a resumable checkpoint, the result
	// reports status "cancelled" and the tool exits 3 — same contract as
	// -timeout expiry. Installed before the (possibly slow) matrix read so
	// an early interrupt is honored too. After the first signal the default
	// handling is restored, so a second interrupt force-kills a stuck
	// process.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-sigCtx.Done()
		stopSignals()
	}()

	observing := *traceFlag || *metricsOut != "" || *listenAddr != ""
	var tracer *telemetry.Tracer
	if *traceFlag {
		tracer = telemetry.NewTracer(os.Stderr)
	} else if *metricsOut != "" {
		tracer = telemetry.NewTracer(nil)
	}
	var metrics *telemetry.Registry
	if *metricsOut != "" || *listenAddr != "" {
		metrics = telemetry.NewRegistry()
	}

	machine, machineOK := arch.ByName(*machineStr)
	if !machineOK {
		fatal("unknown -machine %q (want Skylake|POWER9|A64FX)", *machineStr)
	}
	var roofMon *obs.RooflineMonitor
	if observing {
		roofMon = obs.NewRooflineMonitor(machine, metrics)
	}

	var watcher *obs.SolveWatcher
	var srv *obs.Server
	if *listenAddr != "" {
		watcher = obs.NewSolveWatcher()
		dir := *runsDir
		if dir == "" && *metricsOut != "" {
			dir = filepath.Dir(*metricsOut)
		}
		srv = obs.NewServer(obs.Options{Registry: metrics, Watcher: watcher, RunsDir: dir, Roofline: roofMon})
		addr, err := srv.Start(*listenAddr)
		if err != nil {
			fatal("listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "observability server listening on http://%s\n", addr)
	}

	a, err := mmio.ReadFile(flag.Arg(0))
	if err != nil {
		fatal("read: %v", err)
	}
	if a.Rows != a.Cols {
		fatal("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-10 * a.MaxNorm()) {
		fatal("matrix is not symmetric; PCG requires SPD input")
	}
	fmt.Printf("system: %d unknowns, %d nonzeros\n", a.Rows, a.NNZ())

	b := make([]float64, a.Rows)
	if *rhsPath != "" {
		if b, err = readVector(*rhsPath, a.Rows); err != nil {
			fatal("rhs: %v", err)
		}
	} else {
		for i := range b {
			b[i] = 1
		}
	}

	var perm reorder.Permutation
	if *useRCM {
		perm = reorder.RCM(a)
		bwBefore := reorder.Bandwidth(a)
		a = reorder.ApplySym(a, perm)
		b = reorder.PermuteVec(b, perm)
		fmt.Printf("rcm: bandwidth %d -> %d\n", bwBefore, reorder.Bandwidth(a))
	}

	// -align pins the x-vector's cache-line offset for reproducible miss
	// counts (CI baselines); by default the natural allocation decides.
	var x []float64
	var align int
	if *alignFlag >= 0 {
		align = *alignFlag % (*line / 8)
		x = cachesim.AllocAligned(a.Rows, *line, align)
	} else {
		x = make([]float64, a.Rows)
		align = cachesim.AlignOf(x, *line)
	}

	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(sigCtx, *timeout)
		defer cancel()
	}

	fo := fsai.Options{
		Filter:       *filter,
		LineBytes:    *line,
		AlignElems:   align,
		PatternPower: *power,
		ThresholdTau: *tau,
		MaxRowNNZ:    512,
		Tracer:       tracer,
	}
	// Timing.Total is the one solve clock: printed and in solve_wall_ns.
	opts := krylov.Options{
		Tol: *tol, MaxIter: *maxIter,
		RecordHistory: *history || *metricsOut != "",
		CollectTiming: true,
		Metrics:       metrics,
		Ctx:           ctx,
	}
	if watcher != nil {
		watcher.Begin(fmt.Sprintf("%s/%s", filepath.Base(flag.Arg(0)), *precName), *tol, *maxIter)
		opts.ProgressDetail = watcher.ProgressDetail
	}

	var (
		res   krylov.Result
		g     *fsai.Preconditioner
		rout  *resilience.Outcome
		setup time.Duration
	)
	finalPrecond := *precName
	if *resilient {
		if resilience.Chain(*precName) == nil {
			fatal("-resilient needs -precond to name a recovery rung: %s",
				strings.Join(resilience.Chain(resilience.PrecondFSAIEFull), "|"))
		}
		out, rerr := resilience.Solve(ctx, a, x, b, resilience.Options{
			Precond: *precName,
			Build: func(rung string, m *sparse.CSR) (krylov.Preconditioner, *fsai.Preconditioner, error) {
				return buildPreconditioner(rung, m, fo)
			},
			Solve:   opts,
			Metrics: metrics,
			OnAttempt: func(at resilience.Attempt) {
				msg := fmt.Sprintf("resilience: %-5s %-8s status=%s", at.Stage, at.Precond, at.Status)
				if at.Shift > 0 {
					msg += fmt.Sprintf(" shift=%.3g", at.Shift)
				}
				if at.Stage == "solve" {
					msg += fmt.Sprintf(" iters=%d relres=%.2e", at.Iterations, at.RelRes)
				}
				fmt.Fprintln(os.Stderr, msg)
			},
		})
		if out == nil {
			fatal("resilient solve: %v", rerr)
		}
		res, g, rout = out.Result, out.FSAI, out
		finalPrecond = out.Precond
		for _, at := range out.Log.Attempts {
			if at.Stage == "setup" {
				setup += time.Duration(at.NS)
			}
		}
		if srv != nil && out.Recovered && res.Converged {
			srv.SetHealth(obs.HealthDegraded, fmt.Sprintf(
				"recovered on %q after %d setup retries and %d fallbacks",
				out.Precond, out.Log.Retries, out.Log.Fallbacks))
		}
	} else {
		t0 := time.Now()
		m, gp, err := buildPreconditioner(*precName, a, fo)
		if err != nil {
			fatal("preconditioner: %v", err)
		}
		g = gp
		setup = time.Since(t0)
		res = krylov.Solve(a, x, b, m, opts)
	}
	watcher.End(res)
	solve := res.Timing.Total // a resilient outcome's sums every solve attempt

	fmt.Printf("precond=%s setup=%.1fms solve=%.1fms iterations=%d converged=%v relres=%.2e\n",
		finalPrecond, msec(setup), msec(solve), res.Iterations, res.Converged, res.RelResidual)

	if *traceFlag {
		tm := res.Timing
		fmt.Fprintf(os.Stderr, "solve breakdown: spmv=%.1fms precond=%.1fms blas1=%.1fms total=%.1fms\n",
			msec(tm.SpMV), msec(tm.Precond), msec(tm.BLAS1), msec(tm.Total))
	}

	// Live roofline placement: per-kernel achieved GB/s and GFLOP/s against
	// the -machine model, into the roofline_* gauges and the run report.
	// A recovered solve is not placed: its kernel times mix several rungs.
	var rsol *obs.RooflineSolve
	if roofMon != nil && res.Iterations > 0 && (rout == nil || !rout.Recovered) {
		var gm *sparse.CSR
		if g != nil {
			gm = g.G
		}
		t := res.Timing
		est := roofline.SolveEstimate(a, gm, res.Iterations,
			t.SpMV.Nanoseconds(), t.Precond.Nanoseconds(), t.BLAS1.Nanoseconds(), machine)
		if len(est) > 0 {
			rs := roofMon.Observe("", a.Fingerprint(), res.Iterations, est)
			rsol = &rs
			if *traceFlag {
				for _, e := range est {
					fmt.Fprintf(os.Stderr, "roofline: %-8s %.2f GB/s %.2f GFLOP/s (%.1f%% of %s bound, %s-bound)\n",
						e.Kernel, e.AchievedBandwidthBytes/1e9, e.AchievedFlops/1e9,
						e.PctOfAttainable, machine.Name, e.Bound)
				}
			}
		}
	}

	// Cache-miss attribution of the preconditioner application, for the run
	// report's cache section and the live /metrics series.
	var cacheSection *experiments.RunCacheAttrib
	if g != nil && metrics != nil {
		// Same geometry as the paper's simulated L1 (512 lines, 8 ways),
		// scaled to the requested line size.
		sim := cachesim.New(cachesim.Config{SizeBytes: 512 * *line, LineBytes: *line, Ways: 8})
		topt := cachesim.TraceOptions{AlignElems: align, IncludeStreams: true}
		gp := pattern.FromCSR(g.G)
		base := g.BasePattern
		if base == nil {
			base = gp
		}
		attr := cachesim.TracePreconditionAttrib(sim, gp, base, topt, 0)
		attr.Publish(metrics)
		fsai.PublishSetupStats(metrics, *precName, &g.Stats)
		elems := *line / 8
		var modelLV float64
		if g.NNZ() > 0 {
			lv := cachesim.CountLineVisits(gp, elems, align) +
				cachesim.CountLineVisits(gp.Transpose(), elems, align)
			modelLV = float64(lv) / float64(g.NNZ())
		}
		cacheSection = experiments.RunCacheOf(&attr, modelLV)
	}

	if *metricsOut != "" {
		entry := experiments.RunEntry{
			Matrix:      filepath.Base(flag.Arg(0)),
			Rows:        a.Rows,
			NNZ:         a.NNZ(),
			Variant:     *precName,
			Filter:      *filter,
			Iterations:  res.Iterations,
			Converged:   res.Converged,
			SetupWallNS: setup.Nanoseconds(),
			SolveWallNS: solve.Nanoseconds(),
			History:     res.History,
		}
		if res.Status != krylov.StatusUnknown {
			entry.Status = res.Status.String()
		}
		entry.Resilience = experiments.RunResilienceOf(*precName, rout)
		entry.Timing = experiments.RunTimingOf(res.Timing)
		if g != nil {
			entry.NNZG = g.NNZ()
			entry.ExtPct = g.ExtensionPct()
			entry.SetupPhases = g.Stats.Phases
			entry.Cache = cacheSection
		}
		if rsol != nil {
			entry.Roofline = &experiments.RunRoofline{
				Machine:                rsol.Machine,
				Kernels:                rsol.Kernels,
				BaselineBandwidthBytes: rsol.BaselineBandwidthBytes,
				LowBandwidth:           rsol.LowBandwidth,
			}
		}
		rep := &experiments.RunReport{
			Tool: "fsaisolve",
			// One-shot runs are their own trace: the stamped id correlates
			// this report with any log capture of the same invocation and
			// keeps the schema-v5 field uniform across fsaisolve and fsaid.
			TraceID:   trace.NewTraceID(),
			LineBytes: *line,
			Entries:   []experiments.RunEntry{entry},
		}
		if metrics != nil {
			snap := metrics.Snapshot()
			rep.Metrics = &snap
		}
		if err := experiments.WriteRunReportFile(*metricsOut, rep); err != nil {
			fatal("metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote run report to %s\n", *metricsOut)
	}

	if *withCond {
		base, err := spectral.CondOfMatrix(a, 80)
		if err == nil {
			fmt.Printf("κ(A) ≈ %.4g\n", base.Cond())
		}
		if g != nil {
			pc, err := spectral.CondFSAI(a, g.G, g.GT, 80)
			if err == nil {
				fmt.Printf("κ(G·A·Gᵀ) ≈ %.4g\n", pc.Cond())
			}
		}
	}
	if *history && len(res.History) > 1 {
		fmt.Println(stats.ConvergencePlot(
			[]string{*precName}, [][]float64{res.History}, 72, 8))
	}

	if *outPath != "" {
		if perm != nil {
			x = reorder.UnpermuteVec(x, perm)
		}
		if err := writeVector(*outPath, x); err != nil {
			fatal("out: %v", err)
		}
		fmt.Printf("wrote solution to %s\n", *outPath)
	}

	if *hold && *listenAddr != "" && sigCtx.Err() == nil {
		fmt.Fprintln(os.Stderr, "holding for scrapes; interrupt to exit")
		<-sigCtx.Done()
		// Graceful drain: end any attached SSE watchers and let in-flight
		// scrapes finish before exiting.
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(shCtx)
		shCancel()
	}

	// Exit 3 on any non-converged end state (see the doc comment's exit
	// status contract) so scripts and CI can tell "solved" from "gave up"
	// without parsing stdout.
	if !res.Converged {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// Name the deadline outcome explicitly: the status alone says
			// "cancelled" without saying why.
			fmt.Fprintf(os.Stderr, "fsaisolve: -timeout %s expired; solve stopped at iteration %d (status: %s)\n",
				*timeout, res.Iterations, res.Status)
		} else {
			fmt.Fprintf(os.Stderr, "fsaisolve: solve did not converge (status: %s)\n", res.Status)
		}
		os.Exit(3)
	}
}

// buildPreconditioner constructs the named preconditioner; the second
// return is non-nil for FSAI-family preconditioners (for -cond).
func buildPreconditioner(name string, a *sparse.CSR, fo fsai.Options) (krylov.Preconditioner, *fsai.Preconditioner, error) {
	switch name {
	case "none":
		return krylov.Identity{}, nil, nil
	case "jacobi":
		return krylov.NewJacobi(a), nil, nil
	case "bjacobi":
		m, err := precond.NewBlockJacobi(a, 16)
		return m, nil, err
	case "ssor":
		m, err := precond.NewSSOR(a, 1.0)
		return m, nil, err
	case "ic0":
		m, err := precond.NewIC0(a)
		return m, nil, err
	case "cheby":
		ext, err := spectral.CondOfMatrix(a, 60)
		if err != nil {
			return nil, nil, err
		}
		m, err := precond.NewChebyshev(a, 8, ext.Min*0.3, ext.Max*1.05)
		return m, nil, err
	}
	if !fsai.IsFamily(name) {
		return nil, nil, fmt.Errorf("unknown preconditioner %q", name)
	}
	p, err := fsai.ComputeNamed(name, a, fo)
	return p, p, err
}

func readVector(path string, n int) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", line)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, fmt.Errorf("got %d values, want %d", len(out), n)
	}
	return out, nil
}

func writeVector(path string, x []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, v := range x {
		if _, err := fmt.Fprintf(w, "%.17g\n", v); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func msec(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsaisolve: "+format+"\n", args...)
	os.Exit(1)
}
