// Command fsaid is the long-running solve daemon: it serves the
// internal/service HTTP/JSON API — a content-addressed matrix registry, an
// LRU cache of computed FSAI/FSAIE factors (warm solves skip setup
// entirely) and an admission-controlled job queue — with the observability
// endpoints (/metrics, /healthz, /debug/solve, /debug/pprof/, /runs,
// /traces) mounted on the same listener. Each job's span tree (/traces/<id>)
// is the record of its stage times; /healthz reflects daemon state only
// (memory degradation, the SLO budget), never one client's solve, and
// /debug/solve reports the idle state.
//
// Usage:
//
//	fsaid serve [flags]            run the daemon
//	  -listen ADDR      listen address (default :7474; ":0" picks a free port)
//	  -runs-dir DIR     keep per-job run reports here, served under /runs
//	  -data-dir DIR     durable store for matrices and computed factors; on
//	                    restart the registry and preconditioner cache are
//	                    rehydrated from here, so warm solves survive crashes
//	  -mem-soft-limit S soft heap watermark (e.g. 512MiB); above it the daemon
//	                    sheds cold solves (429) and evicts cached factors
//	  -idempotency N    completed solve responses retained for
//	                    Idempotency-Key replay (default 256)
//	  -max-inflight N   concurrent solve jobs (default 2)
//	  -queue N          jobs allowed to wait for a slot (default 16)
//	  -cache N          cached preconditioner factors (default 16)
//	  -matrices N       registry capacity (default 128)
//	  -workers N        kernel parallelism per solve (default: all CPUs)
//	  -timeout D        default per-job deadline (default 60s)
//	  -batch-window D   collect concurrent warm solves on the same operator
//	                    for up to D (e.g. 5ms) and run them as one block
//	                    solve over a single admission slot (0: batching off)
//	  -batch-max N      jobs per batch; a full batch launches before the
//	                    window closes (default 8)
//	  -log-level L      structured-log level: debug|info|warn|error (default info)
//	  -log-format F     structured-log format: text|json (default text)
//	  -trace-history N  finished request traces kept for /traces (default 256)
//	  -slo-warm D       warm (cache-hit) solve p95 objective (default 2s)
//	  -slo-cold D       cold solve p95 objective (default 30s)
//	  -slo-queue D      queue-wait p95 objective (default 5s)
//	  -slo-window D     SLO sliding window (default 10m)
//	  -slo-min-events N window events before the budget can exhaust (default 10)
//	  -machine NAME     roofline machine model: Skylake|POWER9|A64FX (default Skylake)
//	  -prof-window D    continuous-profiling capture window (default 10s)
//	  -prof-gap D       pause between capture windows (default 50s)
//	  -prof-keep N      profiling windows retained for /profiles (default 32)
//
//	fsaid route [flags]            run the cluster router in front of a fleet
//	  -listen ADDR      listen address (default :7575; ":0" picks a free port)
//	  -peers LIST       comma-separated shard addresses (required), e.g.
//	                    127.0.0.1:7474,127.0.0.1:7475,127.0.0.1:7476
//	  -replicas N       replica shards per matrix beyond the primary (default 1)
//	  -vnodes N         virtual nodes per shard on the hash ring (default 160)
//	  -warm-threshold N routed cache-hit solves on one matrix before its
//	                    factor is replicated to the replicas (default 3;
//	                    negative disables warming)
//	  -probe-interval D per-peer health-probe period (default 1s)
//	  -name NAME        router name in the X-Fsaid-Forwarded-By loop-guard
//	                    header (default fsaid-router)
//	  -log-level L -log-format F -trace-history N   as for serve
//
//	fsaid register [flags]         register a matrix with a running daemon
//	  -addr URL         daemon address (default http://127.0.0.1:7474)
//	  -matgen NAME      register a generator-suite matrix by spec name
//	  -file F.mtx       upload a MatrixMarket file instead
//	  -name ALIAS       optional registry alias
//
//	fsaid solve [flags]            submit a solve job and wait for the result
//	  -addr URL         daemon address
//	  -matrix REF       registered matrix (fingerprint or alias) — required
//	  -precond NAME     none|jacobi|fsai|fsaie-sp|fsaie|adaptive (default fsaie)
//	  -filter F -line N -power N -tau T -tol T -maxiter N   as in fsaisolve
//	  -resilient        route through the adaptive recovery chain
//	  -timeout D        job deadline
//	  -retries N        attempts on 429/503/transport errors (default 1: no
//	                    retry); backoff honors the server's Retry-After, one
//	                    idempotency key spans all attempts, and -deadline
//	                    bounds the whole loop
//	  -deadline D       overall client budget across attempts; propagated to
//	                    the server, which cancels queued and in-flight work
//	                    when it expires (exit 3)
//
//	fsaid stats [-addr URL]        print the daemon's registry/cache/queue stats
//	fsaid jobs  [-addr URL]        print the daemon's job history
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight jobs drain,
// streaming endpoints are ended, then the process exits. A second signal
// force-exits.
//
// Exit status: 0 ok (for solve: converged), 1 runtime error, 2 usage
// error, 3 solve finished without converging OR the -deadline expired —
// the fsaisolve convention (deadline expiry is a cancellation).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		cmdServe(os.Args[2:])
	case "route":
		cmdRoute(os.Args[2:])
	case "register":
		cmdRegister(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "jobs":
		cmdJobs(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fsaid: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: fsaid <subcommand> [flags]

  serve      run the solve daemon
  route      run the cluster router in front of a fleet of daemons
  register   register a matrix with a running daemon
  solve      submit a solve job and wait for the result
  stats      print daemon registry/cache/queue statistics
  jobs       print the daemon job history

Run "fsaid <subcommand> -h" for flags.
`)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsaid: "+format+"\n", args...)
	os.Exit(1)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("fsaid serve", flag.ExitOnError)
	var (
		listen       = fs.String("listen", ":7474", "listen address (\":0\" picks a free port)")
		runsDir      = fs.String("runs-dir", "", "keep per-job run reports here (served under /runs)")
		dataDir      = fs.String("data-dir", "", "durable store for matrices and factors (survives restarts)")
		memSoft      = fs.String("mem-soft-limit", "", "soft heap watermark, e.g. 512MiB (empty: no shedding)")
		idemEntries  = fs.Int("idempotency", 0, "completed responses kept for Idempotency-Key replay (default 256)")
		maxInflight  = fs.Int("max-inflight", 0, "concurrent solve jobs (default 2)")
		queueCap     = fs.Int("queue", 0, "jobs allowed to wait for a slot (default 16)")
		cacheN       = fs.Int("cache", 0, "cached preconditioner factors (default 16)")
		matrixCap    = fs.Int("matrices", 0, "matrix registry capacity (default 128)")
		workers      = fs.Int("workers", 0, "kernel parallelism per solve (0: all CPUs)")
		timeout      = fs.Duration("timeout", 0, "default per-job deadline (default 60s)")
		batchWindow  = fs.Duration("batch-window", 0, "batch window for concurrent warm solves (0: batching off)")
		batchMax     = fs.Int("batch-max", 0, "jobs per batch (default 8)")
		logLevel     = fs.String("log-level", "info", "structured-log level: debug|info|warn|error")
		logFormat    = fs.String("log-format", "text", "structured-log format: text|json")
		traceHistory = fs.Int("trace-history", 0, "finished request traces kept for /traces (default 256)")
		sloWarm      = fs.Duration("slo-warm", 0, "warm (cache-hit) solve p95 objective (default 2s)")
		sloCold      = fs.Duration("slo-cold", 0, "cold solve p95 objective (default 30s)")
		sloQueue     = fs.Duration("slo-queue", 0, "queue-wait p95 objective (default 5s)")
		sloWindow    = fs.Duration("slo-window", 0, "SLO sliding window (default 10m)")
		sloMinEvents = fs.Int("slo-min-events", 0, "events in the window before the budget can exhaust (default 10)")
		machine      = fs.String("machine", "", "roofline machine model: Skylake|POWER9|A64FX (default Skylake)")
		profWindow   = fs.Duration("prof-window", 0, "continuous-profiling capture window (default 10s)")
		profGap      = fs.Duration("prof-gap", 0, "pause between profiling windows (default 50s)")
		profKeep     = fs.Int("prof-keep", 0, "profiling windows retained for /profiles (default 32)")
	)
	_ = fs.Parse(args)

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsaid serve: %v\n", err)
		os.Exit(2)
	}
	if *runsDir != "" {
		if err := os.MkdirAll(*runsDir, 0o755); err != nil {
			fatal("runs-dir: %v", err)
		}
	}
	softLimit, err := parseSize(*memSoft)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsaid serve: -mem-soft-limit: %v\n", err)
		os.Exit(2)
	}
	metrics := telemetry.NewRegistry()
	stopRuntime := telemetry.StartRuntimeMetrics(metrics, 0)
	defer stopRuntime()

	var st *store.Store
	if *dataDir != "" {
		// Open scans the entry files, verifies each and quarantines anything
		// corrupt; the server drains the recovered entries into the registry
		// and preconditioner cache, so the first solve after a crash is
		// already warm.
		if st, err = store.Open(*dataDir, store.Options{Metrics: metrics, Logger: logger}); err != nil {
			fatal("data-dir: %v", err)
		}
	}

	srv := service.New(service.Options{
		Metrics:            metrics,
		RunsDir:            *runsDir,
		Store:              st,
		MemSoftLimitBytes:  softLimit,
		IdempotencyEntries: *idemEntries,
		MaxInflight:        *maxInflight,
		QueueCap:           *queueCap,
		CacheEntries:       *cacheN,
		MatrixCap:          *matrixCap,
		Workers:            *workers,
		DefaultTimeout:     *timeout,
		BatchWindow:        *batchWindow,
		BatchMax:           *batchMax,
		Logger:             logger,
		TraceHistory:       *traceHistory,
		SLO: obs.SLOObjectives{
			WarmSolveP95: *sloWarm,
			ColdSolveP95: *sloCold,
			QueueWaitP95: *sloQueue,
			Window:       *sloWindow,
			MinEvents:    *sloMinEvents,
		},
		Machine: *machine,
		Profiling: prof.Options{
			Window:   *profWindow,
			Gap:      *profGap,
			Capacity: *profKeep,
		},
	})
	addr, err := srv.Start(*listen)
	if err != nil {
		fatal("listen: %v", err)
	}
	logger.Info("fsaid listening", "addr", "http://"+addr.String())

	sigCtx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	<-sigCtx.Done()
	// Restore default signal handling immediately: a second SIGINT/SIGTERM
	// during the drain kills the process instead of being swallowed.
	stopSignals()

	logger.Info("shutting down, draining in-flight jobs")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "error", err.Error())
		_ = srv.Close()
		os.Exit(1)
	}
}

// cmdRoute runs the cluster router: the daemon API unchanged, fanned out
// over a fleet of shards by consistent-hash placement with failover.
func cmdRoute(args []string) {
	fs := flag.NewFlagSet("fsaid route", flag.ExitOnError)
	var (
		listen        = fs.String("listen", ":7575", "listen address (\":0\" picks a free port)")
		peers         = fs.String("peers", "", "comma-separated shard addresses (required)")
		replicas      = fs.Int("replicas", 0, "replica shards per matrix beyond the primary (default 1)")
		vnodes        = fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (default 160)")
		warmThreshold = fs.Int("warm-threshold", 0, "cache-hit solves before replica warming (default 3; negative: off)")
		probeInterval = fs.Duration("probe-interval", 0, "per-peer health-probe period (default 1s)")
		name          = fs.String("name", "", "router name in the loop-guard header (default fsaid-router)")
		logLevel      = fs.String("log-level", "info", "structured-log level: debug|info|warn|error")
		logFormat     = fs.String("log-format", "text", "structured-log format: text|json")
		traceHistory  = fs.Int("trace-history", 256, "finished routing traces kept for /traces")
	)
	_ = fs.Parse(args)

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsaid route: %v\n", err)
		os.Exit(2)
	}
	var addrs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "fsaid route: -peers is required (comma-separated shard addresses)")
		os.Exit(2)
	}

	metrics := telemetry.NewRegistry()
	stopRuntime := telemetry.StartRuntimeMetrics(metrics, 0)
	defer stopRuntime()
	recorder := trace.NewRecorder(*traceHistory, "", metrics)

	ring := cluster.NewRing(*vnodes)
	members := cluster.NewMembership(addrs, ring, cluster.MembershipOptions{
		ProbeInterval: *probeInterval,
		Logger:        logger,
		Registry:      metrics,
	})
	router := cluster.NewRouter(cluster.RouterOptions{
		Name:          *name,
		Replicas:      *replicas,
		WarmThreshold: *warmThreshold,
		Membership:    members,
		Ring:          ring,
		Logger:        logger,
		Registry:      metrics,
		Traces:        recorder,
	})
	addr, err := router.Start(*listen)
	if err != nil {
		fatal("listen: %v", err)
	}
	logger.Info("fsaid router listening",
		"addr", "http://"+addr.String(), "peers", strings.Join(addrs, ","))

	sigCtx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	<-sigCtx.Done()
	stopSignals()

	logger.Info("router shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := router.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "error", err.Error())
		os.Exit(1)
	}
}

// newLogger builds the daemon's slog logger on stderr from the -log-level /
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

// clientContext is the interrupt-aware context for the client subcommands.
func clientContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdRegister(args []string) {
	fs := flag.NewFlagSet("fsaid register", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "http://127.0.0.1:7474", "daemon address")
		matgen = fs.String("matgen", "", "register a generator-suite matrix by spec name")
		file   = fs.String("file", "", "upload a MatrixMarket file")
		name   = fs.String("name", "", "optional registry alias")
	)
	_ = fs.Parse(args)
	if (*matgen == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "fsaid register: need exactly one of -matgen or -file")
		os.Exit(2)
	}
	ctx, cancel := clientContext()
	defer cancel()
	c := client.New(*addr)
	var (
		info service.MatrixInfo
		err  error
	)
	if *matgen != "" {
		info, err = c.RegisterMatgen(ctx, *matgen, *name)
	} else {
		var f *os.File
		if f, err = os.Open(*file); err == nil {
			info, err = c.RegisterMatrixMarket(ctx, f, *name)
			f.Close()
		}
	}
	if err != nil {
		fatal("register: %v", err)
	}
	verb := "registered"
	if !info.Created {
		verb = "already registered"
	}
	shown := info.Name
	if *name != "" {
		shown = *name // the alias this call registered, not the matrix's first
	} else if shown == "" {
		shown = info.Fingerprint[:12]
	}
	fmt.Printf("%s %s (%d unknowns, %d nonzeros) fingerprint=%s\n",
		verb, shown, info.Rows, info.NNZ, info.Fingerprint)
}

func cmdSolve(args []string) {
	fs := flag.NewFlagSet("fsaid solve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:7474", "daemon address")
		matrix    = fs.String("matrix", "", "registered matrix (fingerprint or alias)")
		precond   = fs.String("precond", "fsaie", "preconditioner: none|jacobi|fsai|fsaie-sp|fsaie|adaptive")
		filter    = fs.Float64("filter", 0.01, "FSAIE filter threshold (negative: no filtering)")
		line      = fs.Int("line", 64, "cache line size in bytes")
		power     = fs.Int("power", 1, "initial pattern power N of Ã^N")
		tau       = fs.Float64("tau", 0, "threshold for Ã")
		tol       = fs.Float64("tol", 1e-8, "PCG relative residual tolerance")
		maxIter   = fs.Int("maxiter", 10000, "PCG iteration cap")
		resilient = fs.Bool("resilient", false, "solve through the adaptive recovery chain")
		timeout   = fs.Duration("timeout", 0, "job deadline (0: server default)")
		retries   = fs.Int("retries", 1, "attempts on 429/503/transport errors (1: no retry)")
		deadline  = fs.Duration("deadline", 0, "overall client budget across attempts (0: none); exits 3 on expiry")
	)
	_ = fs.Parse(args)
	if *matrix == "" {
		fmt.Fprintln(os.Stderr, "fsaid solve: -matrix is required")
		os.Exit(2)
	}
	ctx, cancel := clientContext()
	defer cancel()
	if *deadline > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, *deadline)
		defer dcancel()
	}
	pol := client.DefaultRetryPolicy(*retries)
	pol.OnRetry = func(attempt int, err error, delay time.Duration) {
		fmt.Fprintf(os.Stderr, "fsaid: attempt %d failed (%v); retrying in %s\n", attempt, err, delay.Round(time.Millisecond))
	}
	resp, tc, st, err := client.New(*addr).SolveTracedRetry(ctx, service.SolveRequest{
		Matrix:       *matrix,
		Precond:      *precond,
		Filter:       *filter,
		LineBytes:    *line,
		PatternPower: *power,
		Tau:          *tau,
		Tol:          *tol,
		MaxIter:      *maxIter,
		Resilient:    *resilient,
		TimeoutMS:    timeout.Milliseconds(),
	}, trace.Context{}, pol)
	if err != nil {
		// Deadline outcomes exit 3 (a cancellation, like non-convergence),
		// whether the budget died client-side or the server reported the
		// expiry for a queued job (504).
		if deadlineOutcome(err) {
			fmt.Fprintf(os.Stderr, "fsaid: trace=%s attempts=%d\n", tc.TraceID, st.Attempts)
			fmt.Fprintf(os.Stderr, "fsaid: deadline exceeded after %d attempt(s): %v\n", st.Attempts, err)
			os.Exit(3)
		}
		// Surface the identifiers the daemon knows this request by, so a
		// rejected or timed-out submission is still diagnosable: the body's
		// server-assigned ids when a response arrived (429, 5xx), otherwise
		// the client-originated trace id the daemon continues logging under.
		jobID, traceID := "", tc.TraceID
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			jobID, traceID = apiErr.Body.JobID, apiErr.Body.TraceID
			if traceID == "" {
				traceID = tc.TraceID
			}
		}
		if jobID != "" {
			fmt.Fprintf(os.Stderr, "fsaid: job=%s trace=%s attempts=%d\n", jobID, traceID, st.Attempts)
		} else {
			fmt.Fprintf(os.Stderr, "fsaid: trace=%s attempts=%d\n", traceID, st.Attempts)
		}
		if apiErr != nil && apiErr.RetryAfter > 0 {
			fatal("%v (retry after %s)", err, apiErr.RetryAfter)
		}
		fatal("solve: %v", err)
	}
	fmt.Printf("job=%s trace=%s precond=%s cache=%s queue_wait=%.1fms setup=%.1fms solve=%.1fms iterations=%d converged=%v relres=%.2e attempts=%d\n",
		resp.JobID, resp.TraceID, resp.Precond, resp.Cache,
		msec(resp.QueueWaitNS), msec(resp.SetupNS), msec(resp.SolveNS),
		resp.Iterations, resp.Converged, resp.RelRes, st.Attempts)
	if resp.Replayed {
		fmt.Println("replayed: result served from the original attempt (idempotency key matched)")
	}
	if resp.Report != "" {
		fmt.Printf("report: /runs/%s\n", resp.Report)
	}
	if resp.IterAnomaly {
		fmt.Fprintln(os.Stderr, "fsaid: warning: warm solve needed far more iterations than this matrix's baseline")
	}
	if resp.LowBandwidth {
		fmt.Fprintln(os.Stderr, "fsaid: warning: achieved SpMV bandwidth fell >30% below this matrix's baseline (see /roofline)")
	}
	if !resp.Converged {
		fmt.Fprintf(os.Stderr, "fsaid: solve did not converge (status: %s)\n", resp.Status)
		os.Exit(3)
	}
}

// deadlineOutcome reports whether a solve error means a deadline expired —
// the client budget died locally, or the server answered 504 for a job whose
// propagated deadline expired while queued.
func deadlineOutcome(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGatewayTimeout
}

// parseSize parses a byte size like "512MiB", "2GiB", "64MB" or a plain
// byte count. Empty means 0 (disabled).
func parseSize(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	suffixes := []struct {
		suffix string
		mult   uint64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	}
	mult := uint64(1)
	for _, sf := range suffixes {
		if strings.HasSuffix(s, sf.suffix) {
			mult = sf.mult
			s = strings.TrimSpace(strings.TrimSuffix(s, sf.suffix))
			break
		}
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q (want e.g. 512MiB, 2GiB or a byte count)", s)
	}
	return n * mult, nil
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("fsaid stats", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7474", "daemon address")
	_ = fs.Parse(args)
	ctx, cancel := clientContext()
	defer cancel()
	st, err := client.New(*addr).Stats(ctx)
	if err != nil {
		fatal("stats: %v", err)
	}
	fmt.Printf("matrices: %d\n", st.Matrices)
	fmt.Printf("cache:    %d/%d entries, %d hits, %d misses, %d evictions\n",
		st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
	fmt.Printf("queue:    %d/%d waiting, %d/%d inflight, %d accepted, %d rejected, %d completed\n",
		st.Queue.Depth, st.Queue.Capacity, st.Queue.Inflight, st.Queue.MaxInflight,
		st.Queue.Accepted, st.Queue.Rejected, st.Queue.Completed)
}

func cmdJobs(args []string) {
	fs := flag.NewFlagSet("fsaid jobs", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7474", "daemon address")
	_ = fs.Parse(args)
	ctx, cancel := clientContext()
	defer cancel()
	jobs, err := client.New(*addr).Jobs(ctx)
	if err != nil {
		fatal("jobs: %v", err)
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return
	}
	for _, j := range jobs {
		extra := ""
		switch {
		case j.Err != "":
			extra = " error=" + j.Err
		case j.State == service.JobDone:
			extra = fmt.Sprintf(" cache=%s iters=%d status=%s total=%.1fms",
				j.Cache, j.Iterations, j.Status, msec(j.TotalNS))
		}
		fmt.Printf("%-10s %-8s precond=%-8s matrix=%s%s\n",
			j.ID, j.State, j.Precond, shortRef(j.Matrix), extra)
	}
}

func shortRef(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func msec(ns int64) float64 { return float64(ns) / 1e6 }
