// Package obs provides the embeddable live-observability HTTP server: a
// Prometheus /metrics endpoint over the telemetry registry, a live /debug/solve
// view (JSON snapshot or SSE stream) fed by a SolveWatcher plugged into the
// krylov progress hooks, the stdlib pprof handlers, and a run-report browser.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures a Server. All fields are optional: a zero Options yields
// a server whose endpoints report empty metrics / idle solve state.
type Options struct {
	// Registry backs GET /metrics (Prometheus text exposition).
	Registry *telemetry.Registry
	// Watcher backs GET /debug/solve (JSON snapshot and SSE stream).
	Watcher *SolveWatcher
	// RunsDir, when set, backs GET /runs (JSON listing of run reports in the
	// directory) and GET /runs/<name> (the report file itself).
	RunsDir string
	// Heartbeat is the SSE keep-alive interval when no solve updates arrive
	// (default 1s).
	Heartbeat time.Duration
	// Traces backs GET /traces (finished request span trees: JSON listing,
	// /traces/<trace-id> for one tree, ?stream=1 for SSE of new traces).
	Traces *trace.Recorder
	// SLO backs GET /slo and lets budget exhaustion degrade /healthz.
	SLO *SLOMonitor
	// Profiles backs GET /profiles: the continuous sampler's window index,
	// per-window summaries and raw pprof downloads. The server does not
	// start or stop the sampler — ownership stays with the caller.
	Profiles *prof.Sampler
	// Roofline backs GET /roofline and the roofline_* gauges.
	Roofline *RooflineMonitor
	// Cluster backs GET /cluster with the fleet topology when this server
	// fronts a cluster router (internal/cluster). Nil (every plain shard):
	// the route answers 404.
	Cluster TopologyReporter
}

// TopologyReporter is what a cluster router exposes to /cluster: a
// JSON-encodable topology document (peers, states, ring placement), built
// under the request's context. An interface keeps obs free of a dependency
// on internal/cluster, which imports this package.
type TopologyReporter interface {
	Topology(ctx context.Context) any
}

// Server serves the observability endpoints. Construct with NewServer, then
// either mount Handler() on an existing mux or call Start to listen in the
// background.
type Server struct {
	opt Options
	mux *http.ServeMux

	health healthState

	// quit ends long-lived handlers (the /debug/solve SSE streams) on
	// graceful shutdown: http.Server.Shutdown only waits for handlers, it
	// does not interrupt them, so without this signal an attached stream
	// watcher would stall the drain until its client disconnected.
	quit     chan struct{}
	quitOnce sync.Once

	mu sync.Mutex
	ln net.Listener
	hs *http.Server
}

// NewServer builds a server with all endpoints registered.
func NewServer(opt Options) *Server {
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = time.Second
	}
	s := &Server{opt: opt, mux: http.NewServeMux(), quit: make(chan struct{})}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/solve", s.handleSolve)
	s.mux.HandleFunc("/runs", s.handleRuns)
	s.mux.HandleFunc("/runs/", s.handleRunFile)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/traces/", s.handleTraceByID)
	s.mux.HandleFunc("/slo", s.handleSLO)
	s.mux.HandleFunc("/profiles", s.handleProfiles)
	s.mux.HandleFunc("/profiles/", s.handleProfileByID)
	s.mux.HandleFunc("/roofline", s.handleRoofline)
	s.mux.HandleFunc("/version", s.handleVersion)
	s.mux.HandleFunc("/cluster", s.handleCluster)
	// Wire the stdlib profiler explicitly — the package-level init only
	// registers on http.DefaultServeMux, which we deliberately avoid.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", s.handleCPUProfile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the HTTP handler with all endpoints, for embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in a background
// goroutine. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server: new connections are refused,
// in-flight request handlers drain (SSE streams are told to end via the
// internal quit signal), and the call returns once everything finished or
// ctx expired — the contract of net/http.Server.Shutdown. It is safe to
// call on a server that was never Started (an embedded Handler): only the
// stream-ending signal fires, so a parent server draining its own listener
// still unblocks any attached watchers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// Close stops a server previously started with Start.
func (s *Server) Close() error {
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `fsai observability server

  /metrics          Prometheus text exposition of the telemetry registry
  /healthz          solver health (ok/degraded/failing; 503 when failing)
  /debug/solve      live solve state (JSON; add ?stream=1 for SSE)
  /debug/pprof/     Go runtime profiles
  /runs             run-report history (JSON listing; /runs/<name> to fetch)
  /traces           finished request traces (JSON; /traces/<trace-id> for the
                    span tree; add ?stream=1 for SSE of new traces)
  /slo              per-fingerprint latency objectives, burn rate, error budget
  /profiles         continuous profiler: window index; /profiles/<id> for one
                    window's metadata; /profiles/<id>/{cpu,heap,goroutine} for
                    raw .pb.gz (go tool pprof -tags: per-job CPU attribution)
  /roofline         live roofline: achieved GB/s and GFLOP/s per kernel vs the
                    machine roofs, per-matrix bandwidth baselines and flags
  /version          build info (module, version, go toolchain, vcs revision);
                    the cluster router checks it for shard compatibility
  /cluster          fleet topology when this process is a cluster router
                    (peers, health states, ring placement); 404 on shards
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opt.SLO.Refresh()
	if err := s.opt.Registry.WritePrometheus(w); err != nil {
		// Headers are already out; nothing useful left to do but log-free
		// best effort. The registry writer only fails on the writer itself.
		return
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !wantsStream(r) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.opt.Watcher.State())
		return
	}
	// A finished solve ends the stream after its final event so clients
	// like the smoke test and curl terminate cleanly.
	serveEvents(s, w, r, "solve", s.opt.Watcher.Subscribe, func(st SolveState) bool { return st.Done })
}

// wantsStream reports whether r asks for a server-sent event stream:
// ?stream=1, or an Accept header naming text/event-stream.
func wantsStream(r *http.Request) bool {
	return r.URL.Query().Get("stream") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// serveEvents streams what subscribe hands out as server-sent events named
// event, each carrying one value's JSON, with a comment heartbeat every
// Heartbeat. The stream ends when the client goes away, the server shuts
// down, the subscription closes, or last reports the value just sent as
// the final one (nil: none is).
func serveEvents[T any](s *Server, w http.ResponseWriter, r *http.Request, event string,
	subscribe func() (<-chan T, func()), last func(T) bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, cancel := subscribe()
	defer cancel()
	// Send the headers now, so a client knows it is subscribed before the
	// first event or heartbeat.
	fl.Flush()
	heartbeat := time.NewTicker(s.opt.Heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.quit:
			// Graceful shutdown: end the stream so the handler count drains.
			return
		case v, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(v)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
				return
			}
			fl.Flush()
			if last != nil && last(v) {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// handleCPUProfile is net/http/pprof's CPU profile, except while a window
// of the continuous sampler holds the process's one CPU profile, where the
// stdlib handler would answer 500: then it answers 503 with Retry-After set
// to the whole seconds left in the window, and points at that window's own
// CPU profile under /profiles.
func (s *Server) handleCPUProfile(w http.ResponseWriter, r *http.Request) {
	start, end, held := s.opt.Profiles.CPUWindow()
	if !held {
		pprof.Profile(w, r)
		return
	}
	secs := max(1, int(math.Ceil(time.Until(end).Seconds())))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, fmt.Sprintf("cpu profile in use by the continuous profiler's window that started %s; "+
		"it ends in %ds, and its CPU profile is then /profiles/<id>/cpu for the /profiles window with that start",
		start.Format(time.RFC3339Nano), secs), http.StatusServiceUnavailable)
}

// runInfo is one entry in the GET /runs listing.
type runInfo struct {
	Name     string `json:"name"`
	Bytes    int64  `json:"bytes"`
	Modified string `json:"modified"`
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	runs := []runInfo{}
	if s.opt.RunsDir != "" {
		entries, err := os.ReadDir(s.opt.RunsDir)
		if err != nil && !os.IsNotExist(err) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			runs = append(runs, runInfo{
				Name:     e.Name(),
				Bytes:    info.Size(),
				Modified: info.ModTime().UTC().Format(time.RFC3339),
			})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(runs)
}

func (s *Server) handleRunFile(w http.ResponseWriter, r *http.Request) {
	if s.opt.RunsDir == "" {
		http.NotFound(w, r)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/runs/")
	// Reject anything that could escape RunsDir: the listing only ever
	// advertises flat .json names, so that is all we serve back.
	if name == "" || name != filepath.Base(name) || !strings.HasSuffix(name, ".json") {
		http.NotFound(w, r)
		return
	}
	path := filepath.Join(s.opt.RunsDir, name)
	f, err := os.Open(path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	http.ServeContent(w, r, name, time.Time{}, f)
}

// handleTraces serves the trace listing (most recent first) or, with
// ?stream=1 / an SSE Accept header, a live stream of traces as they finish.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !wantsStream(r) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.opt.Traces.List())
		return
	}
	serveEvents(s, w, r, "trace", s.opt.Traces.Subscribe, nil)
}

// handleTraceByID serves one full span tree by trace id.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	t, ok := s.opt.Traces.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t)
}

// handleSLO serves the SLO monitor's full report.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.opt.SLO.Report())
}
