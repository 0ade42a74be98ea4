package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	fsai "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxUploadBytes bounds matrix uploads and solve request bodies.
const maxUploadBytes = 64 << 20

// bodyBufs pools the solve handler's request-body buffers. A buffer that
// grew past maxPooledBody is dropped instead, so one large upload cannot
// pin its memory in the pool.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// stageBuckets are the bounds of the decode and encode stage histograms:
// 10 µs to ~5 s.
var stageBuckets = telemetry.ExpBuckets(1e4, 2, 20)

// Options configures a service Server. The zero value is usable: every
// capacity gets a production-shaped default.
type Options struct {
	// Metrics receives the service.* series and backs the mounted /metrics
	// endpoint. It is the daemon's only count: /api/v1/stats, /slo,
	// /roofline and /profiles read the same series. Nil: a private
	// registry.
	Metrics *telemetry.Registry
	// RunsDir, when set, receives one run report per finished job
	// (<jobid>.json) and is served under /runs.
	RunsDir string

	// MatrixCap bounds the registry (default 128 matrices).
	MatrixCap int
	// CacheEntries bounds the preconditioner LRU (default 16 factors).
	CacheEntries int
	// MaxInflight bounds concurrently running jobs (default 2, one per
	// CPU of a 2-vCPU host: below kernels.ParallelMinLen rows every kernel
	// runs serially on its job's goroutine, so two small jobs use both CPUs;
	// above it the first job gets the shared internal/parallel pool and a
	// second runs inline. More would only oversubscribe).
	MaxInflight int
	// QueueCap bounds jobs waiting for a slot (default 16; negative: no
	// waiting at all); beyond it the server answers 429 with Retry-After.
	QueueCap int
	// DefaultTimeout is the per-job deadline when the request does not set
	// one (default 60s).
	DefaultTimeout time.Duration
	// JobHistory bounds the in-memory job log (default 128).
	JobHistory int
	// Workers is the per-solve kernel parallelism (<=0: all CPUs).
	Workers int
	// Heartbeat is the SSE keep-alive of the mounted obs server.
	Heartbeat time.Duration

	// Logger receives the daemon's structured job-lifecycle records (every
	// line carries job_id and trace_id). Nil: records are discarded, which
	// keeps the package quiet as a library; cmd/fsaid passes a real logger.
	Logger *slog.Logger
	// TraceHistory bounds the in-memory ring of finished request traces
	// served on /traces (default 256). The JSONL export (traces.jsonl under
	// RunsDir, when set) is unbounded.
	TraceHistory int
	// SLO configures the mounted SLO monitor's latency objectives; zero
	// fields get defaults (see obs.SLOObjectives).
	SLO obs.SLOObjectives

	// Machine names the arch model the live roofline estimator prices
	// kernels against ("Skylake", "POWER9", "A64FX"; default Skylake —
	// the paper's primary evaluation node). Unknown names fall back to
	// Skylake with a logged warning rather than failing startup.
	Machine string

	// Store, when non-nil, is the durable persistence layer (fsaid
	// -data-dir): registered matrices and computed factors are written
	// through to it, deletions and evictions remove the disk entries, and
	// New rehydrates the registry and preconditioner cache from its
	// recovered entries — warm solves survive restarts.
	Store *store.Store

	// MemSoftLimitBytes is the soft heap watermark: above it the daemon
	// degrades (sheds cold solves with 429, evicts cache entries) instead
	// of growing toward an OOM kill. 0 disables degradation.
	MemSoftLimitBytes uint64
	// MemProbe overrides the heap measurement (tests). Nil: live heap via
	// runtime.ReadMemStats.
	MemProbe func() uint64

	// BatchWindow, when positive, opens batch windows: a warm-cache
	// FSAI-family solve holds for up to this long so concurrent requests on
	// the same (fingerprint, setup options, tol, max_iter) group into one
	// block solve — one admission slot, one matrix stream for all columns.
	// 0 (the default): every job is a group of one and launches at once.
	BatchWindow time.Duration
	// BatchMax bounds the block width: a group launches immediately when it
	// reaches this many jobs (default 8 — past that the per-column vector
	// working set outgrows the cache amortization).
	BatchMax int

	// IdempotencyEntries bounds the completed-response idempotency index
	// (default 256).
	IdempotencyEntries int
	// Profiling configures the continuous-profiling sampler served at
	// /profiles; zero fields get defaults (10s window every minute, 32
	// retained windows — see prof.Options). The sampler runs only while
	// the server is Started, so handler-only embeddings stay quiet.
	Profiling prof.Options
}

func (o *Options) setDefaults() {
	if o.MatrixCap <= 0 {
		o.MatrixCap = 128
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 16
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2
	}
	switch {
	case o.QueueCap == 0:
		o.QueueCap = 16
	case o.QueueCap < 0:
		o.QueueCap = -1 // newAdmission clamps to an empty queue
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 128
	}
	if o.TraceHistory <= 0 {
		o.TraceHistory = 256
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 8
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Server is the solve daemon: matrix registry + preconditioner cache +
// admission-controlled job execution, with the observability endpoints
// (internal/obs) mounted on the same handler.
type Server struct {
	opt      Options
	reg      *telemetry.Registry
	log      *slog.Logger
	matrices *MatrixRegistry
	cache    *PrecondCache
	adm      *admission
	jobs     *jobLog
	obsSrv   *obs.Server
	traces   *trace.Recorder
	slo      *obs.SLOMonitor
	profiler *prof.Sampler
	roofline *obs.RooflineMonitor
	store    *store.Store
	idem     *idemIndex
	degrade  *degrader
	batch    *batcher
	mux      *http.ServeMux
	seq      atomic.Int64

	mu sync.Mutex
	ln net.Listener
	hs *http.Server
}

// New builds a Server with all endpoints registered.
func New(opt Options) *Server {
	opt.setDefaults()
	reg := opt.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	traceJSONL := ""
	if opt.RunsDir != "" {
		traceJSONL = filepath.Join(opt.RunsDir, "traces.jsonl")
	}
	s := &Server{
		opt:      opt,
		reg:      reg,
		log:      opt.Logger,
		matrices: NewMatrixRegistry(opt.MatrixCap),
		cache:    NewPrecondCache(opt.CacheEntries, reg),
		adm:      newAdmission(opt.MaxInflight, opt.QueueCap, reg),
		jobs:     newJobLog(opt.JobHistory),
		traces:   trace.NewRecorder(opt.TraceHistory, traceJSONL, reg),
		slo:      obs.NewSLOMonitor(opt.SLO, reg),
		mux:      http.NewServeMux(),
	}
	machine := arch.Skylake()
	if opt.Machine != "" {
		m, ok := arch.ByName(opt.Machine)
		if !ok {
			s.log.Warn("unknown machine model, using Skylake", "machine", opt.Machine)
			m = arch.Skylake()
		}
		machine = m
	}
	s.roofline = obs.NewRooflineMonitor(machine, reg)
	po := opt.Profiling
	po.Registry = reg
	// Created here so /profiles is wired for handler-only embeddings (and
	// tests), but started only in Start and stopped in Shutdown/Close: a
	// Server that is never Started spawns no goroutines.
	s.profiler = prof.NewSampler(po)
	// No solve watcher: jobs run concurrently, so one shared last-solve state
	// would describe an arbitrary job. /debug/solve reports the idle state,
	// /healthz only daemon state (memory degradation, the SLO budget), and
	// per-job progress lives in /api/v1/jobs/<id> and /traces/<id>.
	s.obsSrv = obs.NewServer(obs.Options{
		Registry:  reg,
		RunsDir:   opt.RunsDir,
		Heartbeat: opt.Heartbeat,
		Traces:    s.traces,
		SLO:       s.slo,
		Profiles:  s.profiler,
		Roofline:  s.roofline,
	})
	reg.SetHelp("service_matrices", "matrices currently registered")
	reg.SetHelp("service_jobs", "finished solve jobs by outcome: the solver status, failed or rejected")
	reg.SetHelp("service_job_decode_ns", "solve request body read plus JSON decode (the decode span)")
	reg.SetHelp("service_job_total_ns", "job wall time from enqueue to the start of the response (the job span)")
	reg.SetHelp("service_job_encode_ns", "job record, JSON encode and write of a 200 solve response (the encode span)")
	reg.SetHelp("service_job_queue_wait_ns", "job time in the batch window plus waiting for a slot")
	reg.SetHelp("retry_replays_total", "solve responses replayed from the idempotency index (duplicate of a completed request)")
	reg.SetHelp("retry_coalesced_total", "duplicate solve requests that waited for an in-flight execution with the same idempotency key")
	reg.SetHelp("retry_deadline_expired_total", "solve jobs cancelled because the client's propagated deadline expired (504 while queued, cancelled in flight)")
	// Touch the zero counters so the retry_* families render on /metrics
	// from the first scrape.
	reg.Counter("retry.replays_total")
	reg.Counter("retry.coalesced_total")
	reg.Counter("retry.deadline_expired_total")

	s.batch = newBatcher(s, opt.BatchWindow, opt.BatchMax)
	reg.SetHelp("batch_size", "jobs per executed batch (block width): _count is the batches executed, _sum the jobs they solved")
	reg.SetHelp("batch_window_wait_ns", "time jobs spent in the open batch window before launch")
	reg.SetHelp("batch_achieved_ai", "spmm arithmetic intensity of the last executed batch (flop/byte)")

	s.idem = newIdemIndex(opt.IdempotencyEntries)
	s.degrade = newDegrader(opt.MemSoftLimitBytes, opt.MemProbe, s.cache, reg, s.log, s.obsSrv)
	if opt.Store != nil {
		s.store = opt.Store
		s.rehydrate()
		// From here on, every cache eviction (LRU overflow, DELETE,
		// memory-pressure shedding) also removes the disk entry, so the
		// store never serves a factor the cache decided to drop.
		s.cache.SetEvictHook(func(keys ...string) {
			for _, key := range keys {
				if err := s.store.DeleteFactor(key); err != nil {
					s.log.Warn("store factor delete failed", "error", err.Error())
				}
			}
		})
	}

	s.mux.Handle("/", s.obsSrv.Handler())
	s.mux.HandleFunc("/api/v1/matrices", s.handleMatrices)
	s.mux.HandleFunc("/api/v1/matrices/", s.handleMatrix)
	s.mux.HandleFunc("/api/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/api/v1/stats", s.handleStats)
	return s
}

// Handler returns the full daemon handler (API + observability endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Obs exposes the mounted observability server (health overrides, tests).
func (s *Server) Obs() *obs.Server { return s.obsSrv }

// Traces exposes the request-trace recorder (tests, embedding).
func (s *Server) Traces() *trace.Recorder { return s.traces }

// SLO exposes the mounted SLO monitor (tests, embedding).
func (s *Server) SLO() *obs.SLOMonitor { return s.slo }

// Prof exposes the continuous-profiling sampler (tests, embedding). It is
// running only between Start and Shutdown/Close; embedders that use only
// Handler may Start/Stop it themselves.
func (s *Server) Prof() *prof.Sampler { return s.profiler }

// Roofline exposes the live roofline monitor (tests, embedding).
func (s *Server) Roofline() *obs.RooflineMonitor { return s.roofline }

// Store exposes the durable store (nil without one).
func (s *Server) Store() *store.Store { return s.store }

// rehydrate replays the store's recovered entries into the registry and
// the preconditioner cache: the crash-recovery moment the whole layer
// exists for. Every recovered entry was checksum-verified at store.Open;
// a factor entry only rehydrates when its matrix landed in the registry,
// and the reconstructed preconditioner is bit-identical to the one
// computed before the restart.
func (s *Server) rehydrate() {
	matrices, factors := s.store.DrainRecovered()
	nm := 0
	for _, rm := range matrices {
		if _, err := s.matrices.Register(rm.A, rm.Fingerprint, ""); err != nil {
			s.log.Warn("recovered matrix not registered", "names", rm.Names, "error", err.Error())
			continue
		}
		nm++
		// The aliases in registration order: the first one becomes
		// MatrixInfo.Name, as it was before the restart.
		for _, name := range rm.Names {
			if _, err := s.matrices.Register(rm.A, rm.Fingerprint, name); err != nil {
				s.log.Warn("recovered matrix alias not registered", "name", name, "error", err.Error())
			}
		}
	}
	s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
	nf := 0
	for _, f := range factors {
		if _, ok := s.matrices.Get(f.Fingerprint); !ok {
			continue
		}
		p := fsai.FromFactors(f.G, f.Base, f.Stats, s.opt.Workers)
		s.cache.Put(f.Key, &CachedPrecond{P: p, SetupNS: f.SetupNS})
		nf++
	}
	if nm > 0 || nf > 0 {
		s.log.Info("state rehydrated from store",
			"dir", s.store.Dir(), "matrices", nm, "factors", nf)
	}
}

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	// The bound address names this process in distributed traces: one
	// routed request's trace id resolves on both the router ("router") and
	// the shard that executed (this address).
	s.traces.SetNode(ln.Addr().String())
	s.profiler.Start()
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the daemon: the listener closes, streaming
// observability handlers are told to end, and in-flight solve jobs drain
// (or ctx expires). Queued jobs that have not been admitted yet fail with
// their connection.
func (s *Server) Shutdown(ctx context.Context) error {
	// End the SSE streams first — they would otherwise hold the drain open
	// until their clients disconnected.
	s.profiler.Stop()
	obsErr := s.obsSrv.Shutdown(ctx)
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	return obsErr
}

// Close abruptly stops a Started server.
func (s *Server) Close() error {
	s.profiler.Stop()
	_ = s.obsSrv.Shutdown(context.Background())
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	var err error
	if hs != nil {
		err = hs.Close()
	}
	return err
}

// parseSolveRequest decodes one JSON solve request and normalizes it: the
// body's decode-and-validate step, without the HTTP around it. A body of
// the shape fsaid's clients send takes decodeSolveFast; any other goes to
// json.Unmarshal, which decodes it to the same request, so both paths
// accept the same bodies and every error is encoding/json's. Either
// rejects anything but whitespace after the object.
func parseSolveRequest(body []byte) (SolveRequest, error) {
	req, ok := decodeSolveFast(body)
	if !ok {
		// A fresh value: req itself would escape to the heap on every call.
		ref := new(SolveRequest)
		if err := json.Unmarshal(body, ref); err != nil {
			return *ref, fmt.Errorf("bad solve request: %w", err)
		}
		req = *ref
	}
	return req, normalizeSolveRequest(&req)
}

// parseRegisterRequest decodes one JSON registration body and looks up the
// generator spec it names. Like parseSolveRequest, Unmarshal rejects
// anything but whitespace after the object.
func parseRegisterRequest(body []byte) (RegisterRequest, matgen.Spec, error) {
	var req RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, matgen.Spec{}, fmt.Errorf("bad register request: %w", err)
	}
	spec, ok := matgen.ByName(req.Matgen)
	if !ok {
		return req, spec, fmt.Errorf("unknown matgen spec %q", req.Matgen)
	}
	return req, spec, nil
}

// normalize fills the request defaults in place and validates the knobs it
// can check without the matrix. A normalized request survives a
// marshal/decode round trip unchanged (FuzzDecodeSolveRequest): "no
// filtering" stays negative (-1) on the wire, since 0 means "default".
func normalizeSolveRequest(req *SolveRequest) error {
	if req.Matrix == "" {
		return errors.New("missing \"matrix\"")
	}
	if req.Precond == "" {
		req.Precond = "fsaie"
	}
	if req.Precond != "none" && req.Precond != "jacobi" && !fsai.IsFamily(req.Precond) {
		return fmt.Errorf("unknown preconditioner %q", req.Precond)
	}
	if req.Resilient && resilience.Chain(req.Precond) == nil {
		return fmt.Errorf("resilient solves need a recovery rung, not %q", req.Precond)
	}
	if req.SetupOnly {
		switch {
		case req.Resilient:
			return errors.New("setup_only is incompatible with resilient (a warm-up runs no solve to recover)")
		case !fsai.IsFamily(req.Precond):
			return fmt.Errorf("setup_only needs a cacheable FSAI-family preconditioner, not %q", req.Precond)
		}
	}
	if req.Filter == 0 {
		req.Filter = 0.01
	} else if req.Filter < 0 {
		req.Filter = -1 // explicit "no filtering"; setupFilter reads it as 0
	}
	if req.LineBytes <= 0 {
		req.LineBytes = 64
	}
	// Setup cost grows with both knobs and setup ignores the job deadline,
	// so out-of-range values are client errors, not slow or failed jobs.
	// The paper uses N = 1; AblationPatternPower goes up to 3.
	if lb := req.LineBytes; lb < 8 || lb > 1024 || lb&(lb-1) != 0 {
		return fmt.Errorf("line_bytes %d: want a power of two from 8 to 1024", lb)
	}
	if req.PatternPower <= 0 {
		req.PatternPower = 1
	}
	if req.PatternPower > 3 {
		return fmt.Errorf("pattern_power %d: want 1, 2 or 3", req.PatternPower)
	}
	if len(req.RHS) == 0 {
		req.RHS = nil // "rhs": [] is the default, like an absent rhs
	}
	if req.Tol <= 0 {
		req.Tol = 1e-8
	}
	if req.MaxIter <= 0 {
		req.MaxIter = 10000
	}
	if req.TimeoutMS > maxDeadlineMS {
		return fmt.Errorf("timeout_ms %d: want at most %d, the longest time.Duration", req.TimeoutMS, maxDeadlineMS)
	}
	return nil
}

// setupFilter is the extension filter req's setup runs with: the
// normalized "no filtering" (-1) is 0 to the setup, the cache key and the
// run report.
func (req *SolveRequest) setupFilter() float64 { return max(req.Filter, 0) }

// maxDeadlineMS is the largest millisecond budget a time.Duration holds,
// MaxInt64/1e6; it bounds both timeout_ms and X-Fsaid-Deadline-Ms.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// parseDeadlineMS parses an X-Fsaid-Deadline-Ms value: whole milliseconds,
// accepted exactly when 0 < ms <= maxDeadlineMS.
func parseDeadlineMS(h string) (time.Duration, bool) {
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 || ms > maxDeadlineMS {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// writeJSON writes v as compact JSON: one line plus a newline. Solve
// responses carry the solution vector, and indenting it cost more CPU than
// the rest of the encode.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// validateOperator applies the same SPD-shaped gate as cmd/fsaisolve.
func validateOperator(a *sparse.CSR) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if a.Rows == 0 {
		return errors.New("matrix is empty")
	}
	if !a.IsSymmetric(1e-10 * a.MaxNorm()) {
		return errors.New("matrix is not symmetric; PCG requires SPD input")
	}
	return nil
}

func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.matrices.List())
	case http.MethodPost:
		s.registerMatrix(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// DecodeRegistration decodes and validates one POST /api/v1/matrices body:
// a JSON generator spec (RegisterRequest) when contentType names JSON,
// otherwise a MatrixMarket upload. It returns the operator and the alias
// it registers under: a JSON body's name, else the name query parameter,
// else (JSON only) the generator spec. Every error is the daemon's 400
// message; the cluster router answers with the same decoder.
func DecodeRegistration(contentType, name string, body io.Reader) (*sparse.CSR, string, error) {
	var a *sparse.CSR
	if strings.Contains(contentType, "json") {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, "", fmt.Errorf("bad register request: %w", err)
		}
		req, spec, err := parseRegisterRequest(data)
		if err != nil {
			return nil, "", err
		}
		a = spec.Generate()
		if req.Name != "" {
			name = req.Name
		} else if name == "" {
			name = req.Matgen
		}
	} else {
		var err error
		if a, err = mmio.Read(body); err != nil {
			return nil, "", fmt.Errorf("bad MatrixMarket upload: %w", err)
		}
	}
	if err := validateOperator(a); err != nil {
		return nil, "", err
	}
	return a, name, nil
}

func (s *Server) registerMatrix(w http.ResponseWriter, r *http.Request) {
	a, name, err := DecodeRegistration(r.Header.Get("Content-Type"), r.URL.Query().Get("name"),
		http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One hash per registration: the registry and the store both key by it.
	fp := a.Fingerprint()
	info, err := s.matrices.Register(a, fp, name)
	switch {
	case errors.Is(err, ErrRegistryFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
	if s.store != nil {
		// Write-through is best-effort: a store error costs durability, not
		// the registration (the store counts it in store_errors_total).
		if serr := s.store.PutMatrix(a, fp, name); serr != nil {
			s.log.Warn("store matrix write failed",
				"fingerprint", shortFP(fp), "error", serr.Error())
		}
	}
	code := http.StatusOK
	if info.Created {
		code = http.StatusCreated
	}
	writeJSON(w, code, info)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	ref := strings.TrimPrefix(r.URL.Path, "/api/v1/matrices/")
	if ref == "" {
		writeError(w, http.StatusNotFound, "missing matrix reference")
		return
	}
	switch r.Method {
	case http.MethodGet:
		rm, ok := s.matrices.Get(ref)
		if !ok {
			writeError(w, http.StatusNotFound, "matrix %q not registered", ref)
			return
		}
		if strings.Contains(r.Header.Get("Accept"), MatrixMarketType) {
			// Every stored entry: registration accepts a matrix symmetric
			// only to within 1e-10·max|a_ij|, so one triangle could come
			// back as another matrix.
			w.Header().Set("Content-Type", MatrixMarketType)
			_ = mmio.Write(w, rm.A, false)
			return
		}
		writeJSON(w, http.StatusOK, rm.Info)
	case http.MethodDelete:
		fp, ok := s.matrices.Remove(ref)
		if !ok {
			writeError(w, http.StatusNotFound, "matrix %q not registered", ref)
			return
		}
		// Eviction first: the cache's evict hook deletes the factor disk
		// entries, then the matrix entry goes. After this, neither memory
		// nor disk can resurrect the operator.
		s.cache.EvictMatrix(fp)
		if s.store != nil {
			if serr := s.store.DeleteMatrix(fp); serr != nil {
				s.log.Warn("store matrix delete failed",
					"fingerprint", shortFP(fp), "error", serr.Error())
			}
		}
		s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	ji, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, ji)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Matrices: s.matrices.Len(),
		Cache:    s.cache.Stats(),
		Queue:    s.adm.stats(),
		Degraded: s.degrade.stateName(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// One tracer per job: span trees of concurrent jobs must never mix, and
	// the stack-based tracer nests correctly only on its own goroutine. The
	// tree is the job's only clock. Its root covers the handler from the
	// body read to the response write; its children decode, job and encode
	// are the stages every reported time is read from.
	tr := telemetry.NewTracer(nil)
	root := tr.StartSpan("solve-request")
	// The body is read whole into a pooled buffer and decoded by
	// parseSolveRequest, which copies every string out, so the buffer is
	// reusable at once.
	decode := tr.StartSpan("decode")
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	var req SolveRequest
	if err != nil {
		err = fmt.Errorf("bad solve request: %w", err)
	} else {
		req, err = parseSolveRequest(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
	decodeNS := decode.End().Nanoseconds()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rm, ok := s.matrices.Get(req.Matrix)
	if !ok {
		writeError(w, http.StatusNotFound, "matrix %q not registered (POST /api/v1/matrices first)", req.Matrix)
		return
	}
	if len(req.RHS) != 0 && len(req.RHS) != rm.A.Rows {
		writeError(w, http.StatusBadRequest, "rhs has %d values, matrix has %d rows", len(req.RHS), rm.A.Rows)
		return
	}

	// Idempotency: a duplicate of a completed request replays its stored
	// response; a duplicate of an in-flight one waits for the original
	// execution. Either way the solve runs at most once server-side. The
	// owner registers completion via deferred finish below — failure paths
	// abort the claim so transient errors stay retryable.
	var idemEnt *idemEntry
	var finalResp *SolveResponse
	if key := r.Header.Get(HeaderIdempotencyKey); key != "" {
		ent, owner := s.idem.claim(key)
		if !owner {
			s.replayIdempotent(w, r, ent)
			return
		}
		idemEnt = ent
		defer func() {
			if finalResp != nil {
				s.idem.complete(idemEnt, finalResp)
			} else {
				s.idem.abort(idemEnt)
			}
		}()
	}

	// Deadline propagation: the client's remaining budget travels as
	// relative milliseconds and bounds the job from THIS point — queue wait
	// included. A job whose caller gave up must stop occupying the queue
	// and must not start (or keep running) CG. A budget too large for a
	// time.Duration is malformed like a negative one.
	reqCtx := r.Context()
	clientDeadline := false
	if h := r.Header.Get(HeaderDeadlineMS); h != "" {
		if budget, ok := parseDeadlineMS(h); ok {
			var cancel context.CancelFunc
			reqCtx, cancel = context.WithTimeout(reqCtx, budget)
			defer cancel()
			clientDeadline = true
		} else {
			writeError(w, http.StatusBadRequest, "bad %s header %q", HeaderDeadlineMS, h)
			return
		}
	}

	id := fmt.Sprintf("j-%06d", s.seq.Add(1))

	// Establish the job's trace context: continue the client's trace when it
	// sent a well-formed traceparent (our root span becomes a child of its
	// span), otherwise originate a fresh trace. A malformed header is counted
	// and logged but never fails the job — tracing must not break solving.
	tc, parentSpan := trace.New(), ""
	if h := r.Header.Get("traceparent"); h != "" {
		if inbound, perr := trace.ParseTraceparent(h); perr == nil {
			tc, parentSpan = inbound.Child(), inbound.SpanID
		} else {
			s.traces.MalformedHeader()
			s.log.Warn("ignoring malformed traceparent header",
				"job_id", id, "error", perr.Error())
		}
	}
	w.Header().Set("traceparent", tc.Traceparent())
	logw := s.log.With("job_id", id, "trace_id", tc.TraceID)
	root.SetAttr("job_id", id)
	root.SetAttr("matrix", rm.Info.Fingerprint)
	root.SetAttr("precond", req.Precond)

	timeout := s.opt.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ji := JobInfo{
		ID:         id,
		TraceID:    tc.TraceID,
		Matrix:     rm.Info.Fingerprint,
		Precond:    req.Precond,
		State:      JobQueued,
		DecodeNS:   decodeNS,
		EnqueuedAt: time.Now().UTC().Format(time.RFC3339Nano),
	}
	j := &job{
		id: id, req: &req, rm: rm, ji: &ji, tr: tr, tc: tc, root: root,
		span: tr.StartSpan("job"), parentSpan: parentSpan, logw: logw,
		reqCtx: reqCtx, clientDeadline: clientDeadline, timeout: timeout,
		done: make(chan jobOutcome, 1),
	}
	s.jobs.put(ji)
	s.reg.Histogram("service.job.decode_ns", stageBuckets).Observe(float64(decodeNS))
	logw.Info("job enqueued",
		"matrix", shortFP(rm.Info.Fingerprint), "precond", req.Precond)

	// Memory-watermark degradation gate: under pressure only solves that
	// skip the allocation-heavy setup phase (warm cache hits, none/jacobi)
	// are admitted; under critical everything sheds. Shedding answers 429
	// exactly like queue saturation, so retrying clients back off the same
	// way. Otherwise the one job path: the batcher runs the job's group (a
	// group of one right here, a batch after its window). Either way this
	// handler finishes the job; idempotency completion stays with it via
	// finalResp.
	var out jobOutcome
	if state, shed := s.degrade.admit(s.solveIsWarm(&req, rm)); shed {
		out = jobOutcome{rejected: true,
			err: &SaturatedError{RetryAfter: s.adm.retryAfter(), Shed: degradeName(state)}}
	} else {
		s.batch.submit(j)
		out = <-j.done
	}
	finalResp = s.finish(w, j, out)
}

// finish is the one tail of every job: it ends the job stage and, inside
// the encode stage, writes the job record, the latency histograms,
// deadline attribution, the log line, and the HTTP answer — 200 with the
// response, 429 with Retry-After when admission was saturated or memory
// pressure shed the job, 504 when the client's deadline expired in the
// queue, 503 when the client left, 500 when execution failed. Then the root
// span ends, the trace is recorded and the job is counted once under its
// outcome (the solver status, "failed" or "rejected"), the word its trace
// and job record carry. It returns the response for the idempotency index
// (nil on failure).
func (s *Server) finish(w http.ResponseWriter, j *job, out jobOutcome) *SolveResponse {
	totalNS := j.span.End().Nanoseconds()
	encode := j.tr.StartSpan("encode")
	ji := j.ji
	ji.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
	expired := j.clientDeadline && errors.Is(j.reqCtx.Err(), context.DeadlineExceeded)
	if !out.rejected {
		ji.TotalNS = totalNS
		s.adm.observe(totalNS)
		s.reg.Histogram("service.job.total_ns", telemetry.ExpBuckets(1e6, 2, 24)).
			Observe(float64(totalNS))
	}
	resp := out.resp
	var outcome string
	if out.err != nil {
		outcome = JobRejected
		if !out.rejected {
			outcome = JobFailed
		}
		ji.State, ji.Err = outcome, out.err.Error()
		s.jobs.put(*ji)
		if out.rejected {
			j.logw.Warn("job rejected", "error", out.err.Error())
		} else {
			j.logw.Error("job failed", "error", out.err.Error())
		}
		body := ErrorBody{Error: out.err.Error(), JobID: j.id, TraceID: j.tc.TraceID}
		var sat *SaturatedError
		switch {
		case !out.rejected:
			writeJSON(w, http.StatusInternalServerError, body)
		case errors.As(out.err, &sat):
			body.RetryAfterS = int(math.Ceil(sat.RetryAfter.Seconds()))
			w.Header().Set("Retry-After", fmt.Sprint(body.RetryAfterS))
			writeJSON(w, http.StatusTooManyRequests, body)
		case expired:
			// The client's propagated budget ran out while the job was still
			// queue-waiting: give back the queue spot and say so — 504, the
			// deadline-specific "the server did not finish in time" status.
			s.reg.Counter("retry.deadline_expired_total").Inc()
			j.logw.Warn("client deadline expired while queued")
			body.Error = "client deadline expired while queued"
			writeJSON(w, http.StatusGatewayTimeout, body)
		default:
			// The client went away while queued; the body is written for the log.
			writeJSON(w, http.StatusServiceUnavailable, body)
		}
	} else {
		outcome = resp.Status
		resp.DecodeNS = ji.DecodeNS
		resp.TotalNS = ji.TotalNS
		resp.QueueWaitNS = ji.QueueWaitNS
		ji.State = JobDone
		ji.Precond = resp.Precond // a resilient job's final rung
		ji.Cache = resp.Cache
		ji.Status = resp.Status
		ji.Iterations = resp.Iterations
		ji.Converged = resp.Converged
		ji.RelRes = resp.RelRes
		ji.SetupNS = resp.SetupNS
		ji.SolveNS = resp.SolveNS
		logAttrs := []any{"status", resp.Status, "cache", resp.Cache, "iterations", resp.Iterations,
			"converged", resp.Converged, "queue_wait_ns", resp.QueueWaitNS,
			"setup_ns", resp.SetupNS, "solve_ns", resp.SolveNS, "total_ns", resp.TotalNS}
		if bi := resp.Batch; bi != nil {
			ji.Batch = bi.ID
			j.root.SetAttr("batch_id", bi.ID)
			logAttrs = append(logAttrs, "batch_id", bi.ID, "batch_size", bi.Size)
		}
		s.jobs.put(*ji)
		if expired {
			// The client's budget expired mid-flight; the cancellation already
			// stopped CG (status "cancelled") — for a batch member, its column
			// deflated out of the block — this just attributes it.
			s.reg.Counter("retry.deadline_expired_total").Inc()
			j.logw.Warn("client deadline expired in flight", "status", resp.Status)
		}
		j.root.SetAttr("cache", resp.Cache)
		j.logw.Info("job done", logAttrs...)
		writeJSON(w, http.StatusOK, resp)
	}
	encodeNS := encode.End().Nanoseconds()
	if resp != nil {
		s.reg.Histogram("service.job.encode_ns", stageBuckets).Observe(float64(encodeNS))
	}
	j.root.SetAttr("outcome", outcome)
	j.root.End()
	s.recordTrace(j, outcome)
	s.reg.Counter(`service.jobs{status="` + outcome + `"}`).Inc()
	return resp
}

// solveIsWarm reports whether req would skip the allocation-heavy setup
// phase: an FSAI-family factor already resident in the cache, or a
// preconditioner too cheap to matter (none/jacobi).
func (s *Server) solveIsWarm(req *SolveRequest, rm *RegisteredMatrix) bool {
	if req.Precond == "none" || req.Precond == "jacobi" {
		return true
	}
	return s.cache.Contains(PrecondKey(rm.Info.Fingerprint, req))
}

// replayIdempotent serves a request whose idempotency key another request
// owns or owned: wait for the original execution (bounded by this request's
// context) and replay its stored response. A nil stored response means the
// original attempt failed without a result — answer 503 so the client's
// retry loop tries again with the key now unclaimed.
func (s *Server) replayIdempotent(w http.ResponseWriter, r *http.Request, ent *idemEntry) {
	completed := false
	select {
	case <-ent.done:
		completed = true
	default:
	}
	resp, err := s.idem.await(r.Context(), ent)
	switch {
	case err != nil:
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "gave up waiting for the original request with this idempotency key"})
	case resp == nil:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "original request with this idempotency key failed; retry"})
	default:
		if completed {
			s.reg.Counter("retry.replays_total").Inc()
		} else {
			s.reg.Counter("retry.coalesced_total").Inc()
		}
		s.log.Info("idempotent replay", "job_id", resp.JobID, "trace_id", resp.TraceID,
			"coalesced", !completed)
		w.Header().Set(HeaderIdempotentReplay, "1")
		writeJSON(w, http.StatusOK, replayCopy(resp))
	}
}

// recordTrace snapshots the job's finished span tree into the recorder.
// Called after root.End(), on every outcome path — rejected and failed jobs
// leave traces too, so a client holding only an error body's trace id can
// still see where the request spent its time.
func (s *Server) recordTrace(j *job, status string) {
	report := j.tr.Report()
	if len(report) == 0 {
		return
	}
	s.traces.Record(&trace.Trace{
		TraceID:      j.tc.TraceID,
		SpanID:       j.tc.SpanID,
		ParentSpanID: j.parentSpan,
		JobID:        j.id,
		Fingerprint:  j.rm.Info.Fingerprint,
		Name:         j.req.Precond,
		Status:       status,
		Root:         report[0],
	})
}

// execute runs one admitted group. A setup-only job (always alone) builds
// and answers; every other group solves its columns. An error means the
// group could not produce a result at all (setup failure); a non-converged
// solve is a normal response with Converged=false.
func (s *Server) execute(ctx context.Context, g *group) ([]*SolveResponse, error) {
	if !g.jobs[0].req.SetupOnly {
		return s.solveColumns(ctx, g)
	}
	resp, err := s.runSetupOnly(ctx, g.jobs[0])
	if err != nil {
		return nil, err
	}
	return []*SolveResponse{resp}, nil
}

// fsaiOptions is the FSAI setup configuration of req. The job's span tracer
// makes the setup phases (base-pattern, extend, precalc, …) children of the
// request's span tree; the job's label context runs the setup under
// phase=setup pprof labels, attributable in /profiles windows.
func (s *Server) fsaiOptions(ctx context.Context, req *SolveRequest) fsai.Options {
	return fsai.Options{
		Variant:      fsai.VariantFull,
		Filter:       req.setupFilter(),
		LineBytes:    req.LineBytes,
		PatternPower: req.PatternPower,
		ThresholdTau: req.Tau,
		MaxRowNNZ:    512,
		Workers:      s.opt.Workers,
		Tracer:       trace.TracerFromContext(ctx),
		Ctx:          ctx,
	}
}

// solveOptions is the PCG configuration of req. Its kernel-class timing
// is the solve's clock: Timing.Total covers the code of the cg-solve span.
func (s *Server) solveOptions(ctx context.Context, req *SolveRequest) krylov.Options {
	return krylov.Options{
		Tol:           req.Tol,
		MaxIter:       req.MaxIter,
		Workers:       s.opt.Workers,
		CollectTiming: true,
		Metrics:       s.reg,
		Ctx:           ctx,
	}
}

// factor returns the cached FSAI-family preconditioner for req inside a
// "precond-cache" span, building it on a miss (single-flight: the build
// runs on this goroutine, so its setup span nests under this span while
// coalesced waiters get the factor without foreign spans). A freshly built
// factor is written through to the store, then swept again if the matrix
// was unregistered meanwhile. The setup span is the factor's SetupNS. The
// second result is the setup this call paid: its own build's setup span,
// failed or not, and 0 when the factor came from the cache.
func (s *Server) factor(ctx context.Context, id string, rm *RegisteredMatrix, req *SolveRequest) (*CachedPrecond, int64, error) {
	fp := rm.Info.Fingerprint
	key := PrecondKey(fp, req)
	span := trace.StartSpan(ctx, "precond-cache")
	defer span.End()
	if req.SetupOnly {
		span.SetAttr("setup_only", "1")
	}
	var setupNS int64
	entry, hit, err := s.cache.GetOrBuild(ctx, key, func() (*CachedPrecond, error) {
		setup := trace.StartSpan(ctx, "setup")
		p, err := fsai.ComputeNamed(req.Precond, rm.A, s.fsaiOptions(ctx, req))
		setupNS = setup.End().Nanoseconds()
		if err != nil {
			return nil, err
		}
		return &CachedPrecond{P: p, SetupNS: setupNS}, nil
	})
	if err != nil {
		span.SetAttr("cache", "error")
		// %w: the typed fsai.SetupError reaches the shift-retry policy.
		return nil, setupNS, fmt.Errorf("preconditioner: %w", err)
	}
	if hit {
		span.SetAttr("cache", CacheHit)
		return entry, 0, nil
	}
	span.SetAttr("cache", CacheMiss)
	if s.store != nil {
		// Durability write-through: the factor this job just paid for
		// survives a crash. Best-effort — a store failure costs the next
		// restart a recomputation, never this response.
		write := trace.StartSpan(ctx, "store-write")
		serr := s.store.PutFactor(key, fp, entry.P, entry.SetupNS)
		write.End()
		if serr != nil {
			s.log.Warn("store factor write failed",
				"job_id", id, "matrix", shortFP(fp), "error", serr.Error())
		}
	}
	// A concurrent DELETE may have unregistered the matrix while this job
	// was building. Unregistering starts with the registry removal, so if
	// the matrix is still registered here, any delete in flight will sweep
	// our cache/store writes itself; if it is gone, the delete may already
	// have swept — redo the sweep so nothing survives an unregister.
	if _, ok := s.matrices.Get(fp); !ok {
		s.cache.EvictMatrix(fp)
		if s.store != nil {
			_ = s.store.DeleteMatrix(fp)
		}
	}
	return entry, setupNS, nil
}

// solveColumns executes a group through one preconditioner builder: a
// plain group builds once and runs one SolveBlock over every member's
// right-hand side; a resilient job (always a group of one) hands the
// builder to the recovery chain, which asks it for each rung it reaches.
// Then come one roofline placement and the per-column completion.
func (s *Server) solveColumns(ctx context.Context, g *group) ([]*SolveResponse, error) {
	lead := g.jobs[0]
	req, rm := lead.req, lead.rm
	a := rm.A
	n, k := a.Rows, len(g.jobs)

	// An FSAI-family rung on the registered operator comes from the cache;
	// none, jacobi and a shift retry's A+αI (no other job could reuse it)
	// are built in a setup span of their own. setupNS sums what the job paid.
	var (
		entry   *CachedPrecond
		setupNS int64
	)
	build := func(rung string, m *sparse.CSR) (krylov.Preconditioner, *fsai.Preconditioner, error) {
		if fsai.IsFamily(rung) && m == a {
			r := *req
			r.Precond = rung
			e, paid, err := s.factor(ctx, lead.id, rm, &r)
			setupNS += paid
			if err != nil {
				return nil, nil, err
			}
			entry = e
			return e.P, e.P, nil
		}
		setup := trace.StartSpan(ctx, "setup")
		defer func() { setupNS += setup.End().Nanoseconds() }()
		switch rung {
		case "none":
			return krylov.Identity{}, nil, nil
		case "jacobi":
			return krylov.NewJacobi(m), nil, nil
		}
		p, err := fsai.ComputeNamed(rung, m, s.fsaiOptions(ctx, req))
		return p, p, err
	}

	// Column-major right-hand sides; an empty RHS means all-ones.
	b := make([]float64, n*k)
	for i, j := range g.jobs {
		col := b[i*n : (i+1)*n]
		if len(j.req.RHS) == 0 {
			for r := range col {
				col[r] = 1
			}
		} else {
			copy(col, j.req.RHS)
		}
	}
	x := make([]float64, n*k)
	ko := s.solveOptions(ctx, req)
	var (
		br      krylov.BlockResult
		fac     *fsai.Preconditioner
		rout    *resilience.Outcome
		precond = req.Precond
	)
	if req.Resilient {
		out, err := resilience.Solve(ctx, a, x, b, resilience.Options{
			Precond: req.Precond, Build: build, Solve: ko, Metrics: s.reg})
		if out == nil {
			return nil, fmt.Errorf("resilient solve: %w", err)
		}
		res := out.Result
		br = krylov.BlockResult{Columns: []krylov.Result{res}, Iterations: res.Iterations, Timing: res.Timing}
		fac, rout, precond = out.FSAI, out, out.Precond
	} else {
		m, f, err := build(req.Precond, a)
		if err != nil {
			return nil, err
		}
		fac = f
		if g.batched() {
			ko.ColumnCtx = g.colCtx
		}
		br = krylov.SolveBlock(a, x, b, k, m, ko)
	}
	solveNS := br.Timing.Total.Nanoseconds()
	cache := CacheUncached
	if entry != nil {
		cache = CacheHit // the whole point: warm solves pay no setup
		if setupNS > 0 {
			cache = CacheMiss
		}
	}

	// A recovered solve ran on several preconditioners: its kernel times
	// price none of them, so it stays off the roofline, and its iteration
	// count says nothing about the final factor's baseline.
	var rsol *obs.RooflineSolve
	if rout != nil && rout.Recovered {
		entry = nil
	} else {
		var gm *sparse.CSR
		if fac != nil {
			gm = fac.G
		}
		rsol = s.placeRoofline(g, gm, br)
	}
	if g.batched() {
		s.reg.Histogram("batch.size", telemetry.ExpBuckets(1, 2, 6)).Observe(float64(k))
		s.log.Info("batch solved", "batch_id", g.id, "matrix", shortFP(rm.Info.Fingerprint),
			"jobs", k, "iterations", br.Iterations, "all_converged", br.AllConverged,
			"cache", cache, "solve_ns", solveNS, "per_rhs_ns", solveNS/int64(k),
			"achieved_ai", g.achievedAI)
	}
	resps := make([]*SolveResponse, k)
	for i, j := range g.jobs {
		resp := &SolveResponse{
			JobID:   j.id,
			Matrix:  rm.Info.Fingerprint,
			Precond: precond,
			Cache:   cache,
			SetupNS: setupNS,
			SolveNS: solveNS,
		}
		if g.batched() {
			resp.Batch = &BatchInfo{
				ID:           g.id,
				Size:         k,
				Column:       i,
				WindowWaitNS: j.window.Duration().Nanoseconds(),
				SolveWallNS:  solveNS,
				PerRHSNS:     solveNS / int64(k),
				AchievedAI:   g.achievedAI,
			}
			s.reg.Histogram("batch.window_wait_ns", telemetry.ExpBuckets(1e5, 4, 10)).
				Observe(float64(resp.Batch.WindowWaitNS))
		}
		s.finishColumn(j, resp, br.Columns[i], x[i*n:(i+1)*n:(i+1)*n], entry, fac, rout, rsol)
		resps[i] = resp
	}
	return resps, nil
}

// runSetupOnly executes a setup_only job: the preconditioner lands in the
// cache (and the store) and the response reports the cache outcome, but no
// CG runs — a warm-up is not a solve and must not touch the SLO series or
// the roofline. A warm fleet replica answers
// these in microseconds — the cluster router's replication path calls it
// repeatedly without occupying shard solve capacity for long.
func (s *Server) runSetupOnly(ctx context.Context, j *job) (*SolveResponse, error) {
	entry, setupNS, err := s.factor(ctx, j.id, j.rm, j.req)
	if err != nil {
		return nil, err
	}
	resp := &SolveResponse{
		JobID:   j.id,
		TraceID: j.tc.TraceID,
		Matrix:  j.rm.Info.Fingerprint,
		Precond: j.req.Precond,
		Cache:   CacheHit,
		SetupNS: setupNS,
		Status:  StatusSetupOnly,
	}
	if setupNS > 0 {
		resp.Cache = CacheMiss
	}
	if s.opt.RunsDir != "" {
		resp.Report = s.writeJobReport(j, resp, entry.P, nil, krylov.Result{}, nil)
	}
	return resp, nil
}

// placeRoofline prices a finished solve's kernel classes against the
// machine model and folds its SpMV bandwidth into the matrix's rolling
// baseline. A batch is placed once, under its batch id, as a block solve
// whose spmm arithmetic intensity is the batch's achieved AI; a job of its
// own is placed under its job id. The same numbers go to the roofline_*
// gauges, the responses and the run reports, so all agree. Nil when the
// solve ran no iterations or collected no timing.
func (s *Server) placeRoofline(g *group, gm *sparse.CSR, br krylov.BlockResult) *obs.RooflineSolve {
	t := br.Timing
	if br.Iterations == 0 || t == (krylov.Timing{}) {
		return nil
	}
	lead := g.jobs[0]
	a, machine := lead.rm.A, s.roofline.Machine()
	id := lead.id
	var est []roofline.Achieved
	if g.batched() {
		var colIters int64
		for _, c := range br.Columns {
			colIters += int64(c.Iterations)
		}
		est = roofline.BlockSolveEstimate(a, gm, br.Iterations, colIters,
			t.SpMV.Nanoseconds(), t.Precond.Nanoseconds(), t.BLAS1.Nanoseconds(), machine)
		for _, e := range est {
			if e.Kernel == roofline.KernelSpMM {
				g.achievedAI = e.AI
			}
		}
		s.reg.Gauge("batch.achieved_ai").Set(g.achievedAI)
		id = g.id
	} else {
		est = roofline.SolveEstimate(a, gm, br.Iterations,
			t.SpMV.Nanoseconds(), t.Precond.Nanoseconds(), t.BLAS1.Nanoseconds(), machine)
	}
	if len(est) == 0 {
		return nil
	}
	rs := s.roofline.Observe(id, lead.rm.Info.Fingerprint, br.Iterations, est)
	return &rs
}

// finishColumn is the per-column completion of every solving job: the
// response's solve fields, the iteration-count anomaly check against the
// cached factor's baseline, the roofline verdict, the SLO sample and the
// run report.
func (s *Server) finishColumn(j *job, resp *SolveResponse, res krylov.Result, x []float64,
	entry *CachedPrecond, g *fsai.Preconditioner, rout *resilience.Outcome, rsol *obs.RooflineSolve) {
	fp := j.rm.Info.Fingerprint
	if entry != nil && res.Converged {
		// The first converged solve on a factor defines the fingerprint's
		// baseline; warm solves that drift far above it get flagged — the
		// cache still "works" (hit, zero setup) but no longer
		// preconditions like it used to.
		if base := entry.BaselineIters(); resp.Cache == CacheHit && IterationAnomaly(base, res.Iterations) {
			resp.IterAnomaly = true
			s.log.Warn("iteration-count anomaly on warm solve",
				"job_id", j.id, "matrix", shortFP(fp),
				"baseline_iters", base, "iterations", res.Iterations)
		}
		entry.SetBaselineIters(res.Iterations)
	}
	if rsol != nil {
		resp.LowBandwidth = rsol.LowBandwidth
		if rsol.LowBandwidth {
			s.log.Warn("solve bandwidth >30% below matrix baseline",
				"job_id", j.id, "matrix", shortFP(fp),
				"baseline_bw", rsol.BaselineBandwidthBytes)
		}
	}
	resp.Iterations = res.Iterations
	resp.Converged = res.Converged
	resp.Status = res.Status.String()
	resp.RelRes = res.RelResidual
	resp.TraceID = j.tc.TraceID
	if j.req.ReturnSolution {
		resp.X = x
	}
	// SLO accounting happens before the report is written so the report's
	// slo section reflects a window that includes this very solve.
	s.slo.ObserveSolve(fp, resp.Cache == CacheHit, resp.SetupNS+resp.SolveNS, j.ji.QueueWaitNS)
	if resp.IterAnomaly {
		s.slo.RecordIterationAnomaly(fp)
	}
	if s.opt.RunsDir != "" {
		resp.Report = s.writeJobReport(j, resp, g, rout, res, rsol)
	}
}

// writeJobReport emits the job's run report into RunsDir inside a "report"
// span of the job's trace, returning the file name ("" on write failure —
// reports are best-effort; a failed write never fails the job).
func (s *Server) writeJobReport(j *job, resp *SolveResponse, g *fsai.Preconditioner, rout *resilience.Outcome, res krylov.Result, rsol *obs.RooflineSolve) string {
	span := j.tr.StartSpan("report")
	defer span.End()
	rm, req := j.rm, j.req
	label := rm.Info.Name
	if label == "" {
		label = shortFP(rm.Info.Fingerprint)
	}
	entry := experiments.RunEntry{
		Matrix:      label,
		Rows:        rm.Info.Rows,
		NNZ:         rm.Info.NNZ,
		Variant:     resp.Precond,
		Filter:      req.setupFilter(),
		Iterations:  resp.Iterations,
		Converged:   resp.Converged,
		Status:      resp.Status,
		SetupWallNS: resp.SetupNS,
		SolveWallNS: resp.SolveNS,
		Service: &experiments.RunService{
			JobID:       j.id,
			TraceID:     resp.TraceID,
			Fingerprint: rm.Info.Fingerprint,
			Cache:       resp.Cache,
			QueueWaitNS: j.ji.QueueWaitNS,
		},
	}
	// The slo section snapshots the fingerprint's solve-latency series
	// (including this job's own observation) so a report alone answers
	// "was this solve within objective, and how much budget is left".
	kind := obs.SLOColdSolve
	if resp.Cache == CacheHit {
		kind = obs.SLOWarmSolve
	}
	if st, ok := s.slo.State(rm.Info.Fingerprint, kind); ok {
		entry.SLO = &experiments.RunSLO{
			Kind:            st.SLO,
			ObjectiveNS:     st.ObjectiveNS,
			LatencyNS:       resp.SetupNS + resp.SolveNS,
			Met:             resp.SetupNS+resp.SolveNS <= st.ObjectiveNS,
			BurnRate:        st.BurnRate,
			BudgetRemaining: st.BudgetRemaining,
			IterAnomaly:     resp.IterAnomaly,
		}
	}
	entry.Timing = experiments.RunTimingOf(res.Timing)
	if rsol != nil {
		// The exact values the roofline_* gauges exported for this job.
		entry.Roofline = &experiments.RunRoofline{
			Machine:                rsol.Machine,
			Kernels:                rsol.Kernels,
			BaselineBandwidthBytes: rsol.BaselineBandwidthBytes,
			LowBandwidth:           rsol.LowBandwidth,
		}
	}
	if g != nil {
		entry.NNZG = g.NNZ()
		entry.ExtPct = g.ExtensionPct()
		entry.SetupPhases = g.Stats.Phases
	}
	if bi := resp.Batch; bi != nil {
		// Batched job: the entry records the block width and how the batch
		// amortized the solve (schema v7). SolveWallNS above is the whole
		// block's wall time; per_rhs_ns is this job's amortized share.
		entry.NRHS = bi.Size
		entry.Batch = &experiments.RunBatch{
			ID:           bi.ID,
			Size:         bi.Size,
			Column:       bi.Column,
			WindowWaitNS: bi.WindowWaitNS,
			SolveWallNS:  bi.SolveWallNS,
			PerRHSNS:     bi.PerRHSNS,
			AchievedAI:   bi.AchievedAI,
		}
	}
	entry.Resilience = experiments.RunResilienceOf(req.Precond, rout)
	rep := &experiments.RunReport{
		Tool:      "fsaid",
		LineBytes: req.LineBytes,
		Entries:   []experiments.RunEntry{entry},
	}
	name := j.id + ".json"
	if err := experiments.WriteRunReportFile(filepath.Join(s.opt.RunsDir, name), rep); err != nil {
		return ""
	}
	return name
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
